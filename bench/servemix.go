package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advect"
	"repro/internal/mpi"
	"repro/internal/seismic"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serve-mix: the job server under a closed loop of two clients, each of
// which submits a job, follows its event stream to the terminal state,
// fetches the manifest, and only then submits the next. One unit of
// work is one job. One operation is one cycle through the shuffled mix,
// so that every sample holds the same jobs: us_per_unit is the wall
// clock a cycle took per job, which a slower checkpoint or restart
// moves as surely as a slower small job. Per-job latencies are
// per-layer metrics.

const (
	kindSmall = iota
	kindCkpt
	kindSeismic
	kindCrash
	numKinds
)

var kindNames = [numKinds]string{"advect-small", "advect-ckpt", "seismic-small", "advect-crash"}

type serveSize struct {
	specs    [numKinds]serve.JobSpec
	mix      []int // kinds, one per slot of the mix
	warm     []int // kinds of the untimed jobs before the timed section
	nullJobs int
	setups   int
}

const serveClients = 2

func serveSizes(toy bool) serveSize {
	degree, half := 3, 4 // a job adapts and checkpoints at half time, and the crash comes after that
	if toy {
		degree, half = 1, 2
	}
	small := serve.JobSpec{Type: serve.TypeAdvect, Ranks: 2, Degree: degree, Steps: 2 * half,
		Level: 1, MaxLevel: 2, AdaptEvery: half, CheckpointEvery: -1}
	ckpt := small
	ckpt.CheckpointEvery = half
	crash := ckpt
	crash.Fault = &serve.FaultSpec{CrashRank: 1, CrashStep: half + 2}
	seis := serve.JobSpec{Type: serve.TypeSeismic, Ranks: 2, Degree: degree, Steps: 2,
		Level: 1, MaxLevel: 2, CheckpointEvery: -1}
	sz := serveSize{specs: [numKinds]serve.JobSpec{small, ckpt, seis, crash}, nullJobs: 5, setups: 9}
	if toy {
		sz.mix = []int{kindSmall, kindCkpt, kindSeismic, kindCrash}
		sz.warm = []int{kindSmall}
		sz.nullJobs, sz.setups = 1, 1
		return sz
	}
	sz.warm = []int{kindSmall, kindCkpt, kindSeismic, kindCrash}
	for k, slots := range [numKinds]int{10, 3, 2, 1} {
		for i := 0; i < slots; i++ {
			sz.mix = append(sz.mix, k)
		}
	}
	return sz
}

// nullSpec is the smallest job the server accepts.
var nullSpec = serve.JobSpec{Type: serve.TypeAdvect, Ranks: 1, Degree: 1, Steps: 1,
	Level: 1, MaxLevel: 1, AdaptEvery: -1, CheckpointEvery: -1}

// kindOf is the seeded job order: job i is slot i of an endless sequence
// of independently shuffled copies of the mix.
func (sz serveSize) kindOf(seed int64, i int) int {
	n := len(sz.mix)
	perm := rand.New(rand.NewSource(seed*1000003 + int64(i/n))).Perm(n)
	return sz.mix[perm[i%n]]
}

// directRun runs a job spec through the library the way serve's runner
// does, without the server: the reference for its field hash and for
// the solver's share of a job's latency.
func directRun(spec serve.JobSpec) (hash uint64, wall float64) {
	t0 := time.Now()
	mpi.Run(spec.Ranks, func(c *mpi.Comm) {
		var h uint64
		switch spec.Type {
		case serve.TypeAdvect:
			o := advect.DefaultOptions()
			o.Degree, o.Level, o.MaxLevel = spec.Degree, int8(spec.Level), int8(spec.MaxLevel)
			s := advect.NewShell(c, o)
			dt := s.DT()
			for step := 1; step <= spec.Steps; step++ {
				s.Step(dt)
				if spec.AdaptEvery > 0 && step%spec.AdaptEvery == 0 && s.Adapt() {
					dt = s.DT()
				}
			}
			h = s.FieldHash()
		case serve.TypeSeismic:
			o := seismic.DefaultOptions()
			o.Degree, o.MinLevel, o.MaxLevel = spec.Degree, int8(spec.Level), int8(spec.MaxLevel)
			s := seismic.NewSolver(c, seismic.BuildEarthForest(c, o), o, premMaterial)
			s.Source = seismic.RickerSource([3]float64{0, 0, 0.9}, [3]float64{0, 0, 1}, o.FreqHz*500, 1, 0.05)
			dt := s.DT()
			for step := 0; step < spec.Steps; step++ {
				s.Step(dt)
			}
			h = s.FieldHash()
		}
		if c.Rank() == 0 {
			hash = h
		}
	})
	return hash, time.Since(t0).Seconds()
}

// server is cmd/serve's wiring behind a loopback listener.
type server struct {
	sched  *serve.Scheduler
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

func startServer(dataDir string) (*server, error) {
	tel := telemetry.NewServer()
	sched, err := serve.NewScheduler(serve.Config{MaxActive: 1, MaxQueue: 64, DataDir: dataDir}, tel)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Drain()
		return nil, err
	}
	s := &server{
		sched:  sched,
		srv:    &http.Server{Handler: serve.NewHandler(sched, tel)},
		done:   make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed from stop
	}()
	return s, nil
}

// stop drains the scheduler, closes the listener and every connection,
// and waits for the serving goroutine.
func (s *server) stop() {
	s.sched.Drain()
	s.srv.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// jobResult is what a client saw of one job.
type jobResult struct {
	index, kind               int     // position in the seeded order, and its kind
	end                       float64 // seconds into the timed section when the client was done with it
	latency, submit, manifest time.Duration
	events                    int
	refused                   bool // 429
	view                      serve.JobView
	err                       error
}

// runJob is one turn of the closed loop.
func (s *server) runJob(spec serve.JobSpec, ln *lane) (r jobResult) {
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	ln.begin(opRoot)
	defer ln.end()
	t0 := time.Now()
	ln.begin("serve.submit")
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		if resp.StatusCode == http.StatusCreated {
			err = json.NewDecoder(resp.Body).Decode(&r.view)
		} else {
			r.refused = resp.StatusCode == http.StatusTooManyRequests
			b, _ := io.ReadAll(resp.Body)
			err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		resp.Body.Close()
	}
	ln.end()
	r.submit = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	id := r.view.ID

	ln.begin("serve.follow")
	r.events, err = followEvents(s.client, s.base+"/jobs/"+id+"/events")
	r.latency = time.Since(t0)
	if err == nil {
		err = s.getJSON("/jobs/"+id, &r.view)
	}
	if v := r.view; err == nil && v.Started != nil && v.Finished != nil {
		// The server's own account of the interval the client waited.
		ln.add("serve.queue_wait", v.Submitted, *v.Started)
		ln.add("serve.run", *v.Started, *v.Finished)
	}
	ln.end()
	if err != nil {
		r.err = err
		return r
	}

	t1 := time.Now()
	var manifest map[string]any
	ln.do("serve.manifest", func() { err = s.getJSON("/jobs/"+id+"/files/manifest.json", &manifest) })
	r.manifest = time.Since(t1)
	if err != nil {
		r.err = fmt.Errorf("manifest: %w", err)
	}
	return r
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// followEvents reads a job's SSE stream until the server closes it at
// the terminal state and returns the number of events.
func followEvents(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events: %s", resp.Status)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data:") {
			n++
		}
	}
	return n, sc.Err()
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func runServeMix(cfg config) (*outcome, error) {
	sz := serveSizes(cfg.toy)
	out := &outcome{layer: map[string]float64{}}

	// Set-up: scheduler, listener, and the first job through the whole
	// path, each time in a data directory of its own.
	boot := func() (*server, error) {
		t0 := time.Now()
		dir, err := os.MkdirTemp(cfg.tmp, "serve-*")
		if err != nil {
			return nil, err
		}
		s, err := startServer(dir)
		if err != nil {
			return nil, err
		}
		r := s.runJob(sz.specs[kindSmall], nil)
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if r.err != nil || r.view.State != serve.StateDone {
			s.stop()
			return nil, fmt.Errorf("serve-mix set-up job: state %q: %v", r.view.State, r.err)
		}
		return s, nil
	}
	for i := 1; i < sz.setups; i++ {
		s, err := boot()
		if err != nil {
			return nil, err
		}
		s.stop()
		settle()
	}
	srv, err := boot()
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	// Expected hashes, straight from the library. The crash job's
	// fault-free twin is the checkpointing job.
	var want [numKinds]string
	var directSmall []float64
	for k := range want {
		twin := sz.specs[k]
		twin.Fault = nil
		h, wall := directRun(twin)
		if cfg.corrupt {
			h++
		}
		want[k] = fmt.Sprintf("%#016x", h)
		if k == kindSmall {
			directSmall = append(directSmall, wall)
		}
		out.note("%s: field hash %s, %.0f ms through the library", kindNames[k], want[k], wall*1e3)
	}
	settle()
	for _, k := range sz.warm { // untimed
		if r := srv.runJob(sz.specs[k], nil); r.err != nil {
			return nil, fmt.Errorf("serve-mix warm-up %s: %w", kindNames[k], r.err)
		}
	}

	rec := newRecorder(cfg, serveClients)
	var (
		mu      sync.Mutex
		results []jobResult
		next    atomic.Int64
		limit   atomic.Int64 // first job index not to run; 0 while the clock runs
		wg      sync.WaitGroup
	)
	cycle := len(sz.mix)
	t0 := time.Now()
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := rec.lane(cl)
			for {
				i := int(next.Add(1)) - 1
				if i >= minOps*cycle && time.Since(t0).Seconds() >= cfg.seconds {
					// Time is up: finish the cycle in progress.
					limit.CompareAndSwap(0, int64((i+cycle-1)/cycle*cycle))
				}
				if l := limit.Load(); l != 0 && int64(i) >= l {
					return
				}
				ln.startOp(i, i/cycle%2 == 0)
				k := sz.kindOf(cfg.seed, i)
				spec := sz.specs[k]
				spec.Tag = fmt.Sprintf("%s-%d", kindNames[k], i)
				r := srv.runJob(spec, ln)
				r.index, r.kind, r.end = i, k, time.Since(t0).Seconds()
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(t0).Seconds()
	out.transport, out.workers = mpi.DefaultTransport, mpi.DefaultWorkers

	var all, queue, run, submit, manifest, overhead []float64
	var runOf [numKinds][]float64
	var events, refused int
	cycles := (len(results) + cycle - 1) / cycle
	cycleEnd, cycleOK := make([]float64, cycles), make([]int, cycles)
	for _, r := range results {
		chk := out.op()
		chk.require(r.err == nil, "job %d (%s): %v", r.index, kindNames[r.kind], r.err)
		chk.require(r.view.State == serve.StateDone, "job %s (%s): state %q: %s", r.view.ID, kindNames[r.kind], r.view.State, r.view.Error)
		chk.require(r.view.FieldHash == want[r.kind], "job %s (%s): field hash %s, want %s", r.view.ID, kindNames[r.kind], r.view.FieldHash, want[r.kind])
		if r.kind == kindCrash {
			chk.require(r.view.Attempts >= 2, "job %s: crash job finished in %d attempt(s)", r.view.ID, r.view.Attempts)
		}
		if r.refused {
			refused++
		}
		cycleEnd[r.index/cycle] = max(cycleEnd[r.index/cycle], r.end)
		if chk.failed {
			continue // a failed or refused job has no latency
		}
		cycleOK[r.index/cycle]++
		out.units++
		lat := r.latency.Seconds()
		all = append(all, lat*1e3)
		queue = append(queue, r.view.QueueWaitSeconds*1e3)
		run = append(run, r.view.RunSeconds*1e3)
		runOf[r.kind] = append(runOf[r.kind], r.view.RunSeconds*1e3)
		submit = append(submit, ms(r.submit))
		manifest = append(manifest, ms(r.manifest))
		events += r.events
		if r.kind == kindSmall {
			overhead = append(overhead, (lat-r.view.QueueWaitSeconds)*1e3)
		}
	}
	// A cycle's wall runs from the end of the cycle before it; a cycle
	// with a failed job gives no sample.
	for k, prev := 0, 0.0; k < cycles; k, prev = k+1, cycleEnd[k] {
		us := (cycleEnd[k] - prev) * 1e6 / float64(cycle)
		switch {
		case cycleOK[k] != cycle:
		case rec != nil && k%2 == 0:
			out.traced = append(out.traced, us)
		default:
			out.samples = append(out.samples, us)
		}
	}
	if pct, v := tailPercentile(all); pct > 0 {
		out.note("jobs %d: latency median %.1f ms, p%d %.1f ms (highest percentile with ten samples beyond it)", len(all), median(all), pct, v)
	}
	if !cfg.trace {
		return out, nil
	}
	out.spans = rec.merge()

	for i := 0; i < 2; i++ {
		_, wall := directRun(sz.specs[kindSmall])
		directSmall = append(directSmall, wall)
	}
	var null []float64
	for i := 0; i < sz.nullJobs; i++ {
		r := srv.runJob(nullSpec, nil)
		if r.err != nil {
			return nil, fmt.Errorf("serve-mix null job: %w", r.err)
		}
		null = append(null, ms(r.latency))
	}
	out.layer["serve.submit_ms"] = median(submit)
	out.layer["serve.queue_wait_p50_ms"] = median(queue)
	out.layer["serve.run_p50_ms"] = median(run)
	out.layer["serve.overhead_p50_ms"] = median(overhead) - median(directSmall)*1e3
	out.layer["serve.null_job_ms"] = median(null)
	out.layer["serve.restart_ms"] = median(runOf[kindCrash]) - median(runOf[kindCkpt])
	out.layer["serve.manifest_fetch_ms"] = median(manifest)
	out.layer["serve.events_per_job"] = float64(events) / float64(len(all))
	out.layer["serve.retries_429"] = float64(refused)
	out.layer["serve.job_p50_ms"] = median(all)
	out.layer["serve.job_p95_ms"] = percentile(all, 95)
	out.layer["serve.job_p99_ms"] = percentile(all, 99)
	return out, nil
}
