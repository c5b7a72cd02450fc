package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestEndpointsServeMergedSources(t *testing.T) {
	world := metrics.NewSharded(2)
	world.Counter("mpi_msgs_sent").AddShard(1, 5)
	// Two per-rank solver registries exporting the same instrument names;
	// the server must fold them into one cross-rank family.
	r0 := metrics.NewRegistry()
	r0.Histogram("integrate", metrics.UnitDuration).Observe(1000)
	r0.Gauge("step").Set(3)
	r1 := metrics.NewRegistry()
	r1.Histogram("integrate", metrics.UnitDuration).Observe(3000)
	r1.Gauge("step").Set(4)

	s := NewServer()
	s.RegisterWorld(world)
	s.Register("solver", 0, r0)
	s.Register("solver", 1, r1)
	h := s.Handler()

	code, body := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`amr_mpi_msgs_sent_total{rank="1"} 5`,
		`# TYPE amr_integrate_seconds summary`,
		`amr_integrate_seconds_count 2`,
		`amr_step{rank="0"} 3`,
		`amr_step{rank="1"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get(t, h, "/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap.Ranks != 2 {
		t.Fatalf("ranks = %d, want 2", snap.Ranks)
	}
	var integrate *HistView
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "integrate" {
			integrate = &snap.Histograms[i]
		}
	}
	if integrate == nil || integrate.Count != 2 || integrate.Sum != 4000 {
		t.Fatalf("merged integrate = %+v", integrate)
	}
	if integrate.PerRankSum[0] != 1000 || integrate.PerRankSum[1] != 3000 {
		t.Fatalf("per-rank sums = %v", integrate.PerRankSum)
	}

	// pprof and expvar must be mounted.
	if code, _ := get(t, h, "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, body := get(t, h, "/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars status %d", code)
	}
}

func TestHealthzDuringActiveFaultPlan(t *testing.T) {
	reg := metrics.NewSharded(2)
	s := NewServer()
	s.RegisterWorld(reg)

	// Ranks keep exchanging messages under a lossy plan until told to
	// stop, while the test scrapes /healthz mid-run.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		plan := &mpi.FaultPlan{Seed: 7, Drop: 0.4, Dup: 0.3}
		mpi.RunOpt(2, mpi.RunOptions{Plan: plan, Metrics: reg}, func(c *mpi.Comm) {
			hb := reg.Gauge("heartbeat_unix_ns")
			st := reg.Gauge("step")
			peer := 1 - c.Rank()
			for i := 0; ; i++ {
				c.Send(peer, 1, int64(i))
				c.Recv(peer, 1)
				st.SetShard(c.Rank(), int64(i))
				hb.SetShard(c.Rank(), time.Now().UnixNano())
				// The stop decision must be collective: if each rank read
				// the flag independently, one could exit while its peer
				// blocks forever on a receive.
				var want int64
				if c.Rank() == 0 && stop.Load() {
					want = 1
				}
				if mpi.AllreduceSum(c, want) > 0 {
					return
				}
			}
		})
	}()

	h := s.Handler()
	deadline := time.Now().Add(5 * time.Second)
	var health Health
	for {
		if time.Now().After(deadline) {
			stop.Store(true)
			<-done
			t.Fatalf("no fault activity observed before deadline; last health: %+v", health)
		}
		code, body := get(t, h, "/healthz")
		if code != 200 {
			t.Fatalf("/healthz status %d", code)
		}
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatalf("/healthz not valid JSON: %v\n%s", err, body)
		}
		if health.Faults["fault_drops"] > 0 && len(health.Step) == 2 &&
			len(health.HeartbeatAgeSeconds) == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	<-done

	if health.Status != "ok" || health.Ranks != 2 {
		t.Fatalf("health = %+v", health)
	}
	for r := 0; r < 2; r++ {
		age, ok := health.HeartbeatAgeSeconds[r]
		if !ok || age < 0 || age > 60 {
			t.Fatalf("rank %d heartbeat age = %v (ok=%v)", r, age, ok)
		}
	}
	// The live /metrics view must carry the same fault counters.
	_, body := get(t, h, "/metrics")
	if !strings.Contains(body, "amr_fault_drops_total") {
		t.Fatalf("/metrics missing fault counters:\n%s", body)
	}
}

func TestListenAndServe(t *testing.T) {
	s := NewServer()
	s.RegisterWorld(metrics.NewSharded(1))
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
}

func TestResetSources(t *testing.T) {
	s := NewServer()
	reg := metrics.NewSharded(4)
	reg.Counter("x").Add(1)
	s.RegisterWorld(reg)
	if snap := s.Gather(); snap.Ranks != 4 {
		t.Fatalf("ranks = %d", snap.Ranks)
	}
	s.ResetSources()
	if snap := s.Gather(); snap.Ranks != 0 || len(snap.Counters) != 0 {
		t.Fatalf("sources survived reset: %+v", snap)
	}
}

// TestCloseWaitsForInflightRequests pins the graceful-shutdown satellite:
// a scrape already being served when Close is called receives its complete
// response (previously http.Server.Close cut the connection mid-body),
// while Close itself stays bounded by the shutdown grace.
func TestCloseWaitsForInflightRequests(t *testing.T) {
	s := NewServer()
	s.RegisterWorld(metrics.NewSharded(1))
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The execution-trace endpoint streams for the requested duration, so
	// the request is reliably still in flight when Close fires.
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/debug/pprof/trace?seconds=0.5")
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		_, rerr := io.Copy(io.Discard, resp.Body)
		done <- result{resp.StatusCode, rerr}
	}()

	// Headers arrive immediately; give the stream a moment to be mid-body.
	time.Sleep(100 * time.Millisecond)
	t0 := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if waited := time.Since(t0); waited > shutdownGrace+time.Second {
		t.Fatalf("Close blocked %v, beyond the shutdown grace", waited)
	}

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("in-flight request cut off by Close: %v", r.err)
		}
		if r.status != 200 {
			t.Fatalf("in-flight request status %d", r.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// New connections must be refused after Close.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server accepted a connection after Close")
	}
}

// TestGatherWhileTracing scrapes /metrics and Gather in a loop while four
// ranks record spans, some of whose names first appear mid-run: the
// tracer's running aggregates must be safe to read while they grow (the
// -race build checks it), and the last scrape sees every span.
func TestGatherWhileTracing(t *testing.T) {
	const ranks, steps = 4, 1000
	tr := trace.New(ranks)
	world := metrics.NewSharded(ranks)
	s := NewServer()
	s.RegisterWorld(world)
	s.RegisterTracer(tr)
	h := s.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		mpi.RunOpt(ranks, mpi.RunOptions{Tracer: tr, Metrics: world}, func(c *mpi.Comm) {
			rt := c.Tracer()
			for i := 0; i < steps; i++ {
				rt.Begin("step")
				mpi.AllreduceSum(c, int64(i))
				if i >= steps/2 {
					rt.Span(fmt.Sprintf("late%d", (i+c.Rank())%3), func() {})
				}
				rt.End()
			}
		})
	}()
	scrapes := 0
	for running := true; running; scrapes++ {
		select {
		case <-done:
			running = false
		default:
		}
		s.Gather()
		if code, _ := get(t, h, "/metrics"); code != 200 {
			t.Fatalf("/metrics status %d", code)
		}
	}

	snap := s.Gather()
	counts := map[string]int64{}
	for _, hv := range snap.Histograms {
		counts[hv.Name] = hv.Count
		if strings.HasPrefix(hv.Name, "phase_late") && len(hv.PerRankCount) != ranks {
			t.Errorf("%s per-rank counts %v, want all %d ranks", hv.Name, hv.PerRankCount, ranks)
		}
	}
	if counts["phase_step"] != ranks*steps {
		t.Errorf("phase_step count %d, want %d", counts["phase_step"], ranks*steps)
	}
	if late := counts["phase_late0"] + counts["phase_late1"] + counts["phase_late2"]; late != ranks*steps/2 {
		t.Errorf("phase_late* counts %v, want %d in all", counts, ranks*steps/2)
	}
	if snap.Ranks != ranks {
		t.Errorf("ranks = %d, want %d", snap.Ranks, ranks)
	}
	t.Logf("%d scrapes while recording", scrapes)
}
