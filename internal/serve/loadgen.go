package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configure one load-generation run against a serve instance.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Jobs is the total number of jobs to submit. Default 100.
	Jobs int
	// Concurrency is the number of parallel clients; each submits its
	// share of the jobs and waits for their terminal states. Default 32.
	Concurrency int
	// Mix is the set of job templates, assigned round-robin. Default
	// DefaultMix().
	Mix []JobSpec
	// Client overrides the HTTP client (http.DefaultClient otherwise).
	Client *http.Client
	// RetryDelay is the backoff unit after an admission rejection (429).
	// Default 25ms; attempt k waits k*RetryDelay.
	RetryDelay time.Duration
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Jobs == 0 {
		o.Jobs = 100
	}
	if o.Concurrency == 0 {
		o.Concurrency = 32
	}
	if len(o.Mix) == 0 {
		o.Mix = DefaultMix()
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.RetryDelay == 0 {
		o.RetryDelay = 25 * time.Millisecond
	}
	return o
}

// DefaultMix is the loadgen job mix: mostly tiny advection jobs (the
// service's "hundreds of concurrent small tenants" case), one variant
// that checkpoints, and a small seismic job — heavy enough to make the
// queue back up, light enough that a 1-core host finishes the run.
func DefaultMix() []JobSpec {
	tiny := JobSpec{
		Type: TypeAdvect, Ranks: 2, Steps: 2,
		Level: 1, MaxLevel: 1,
		AdaptEvery: -1, CheckpointEvery: -1, MaxRestarts: -1,
	}
	ckpt := JobSpec{
		Type: TypeAdvect, Ranks: 2, Steps: 4,
		Level: 1, MaxLevel: 2,
		CheckpointEvery: 2,
	}
	seis := JobSpec{
		Type: TypeSeismic, Ranks: 2, Steps: 1,
		Level: 1, MaxLevel: 2,
		CheckpointEvery: -1, MaxRestarts: -1,
	}
	// Weights via repetition: 6:1:1 tiny:ckpt:seismic.
	return []JobSpec{tiny, tiny, tiny, ckpt, tiny, seis, tiny, tiny}
}

// LoadResult is one load run's outcome: totals, admission-control
// behavior, and the client-observed job latency distribution
// (submission-accepted to terminal-state).
type LoadResult struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	// Retries429 counts admission rejections; every one was retried until
	// accepted, so >0 here with Completed == Jobs is the "admission
	// control engaged, nothing dropped" signature.
	Retries429 int64 `json:"retries_429"`
	// QueuedJobs counts jobs that reported a nonzero queue wait — they
	// were admitted while all workers were busy.
	QueuedJobs int `json:"queued_jobs"`

	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	LatencyMeanSeconds  float64 `json:"latency_mean_seconds"`
	LatencyP50Seconds   float64 `json:"latency_p50_seconds"`
	LatencyP95Seconds   float64 `json:"latency_p95_seconds"`
	LatencyP99Seconds   float64 `json:"latency_p99_seconds"`
	LatencyMaxSeconds   float64 `json:"latency_max_seconds"`
	QueueWaitMaxSeconds float64 `json:"queue_wait_max_seconds"`
}

// RunLoad drives a serve instance with opts.Jobs jobs from
// opts.Concurrency parallel clients and reports the aggregate. An error
// means the run itself broke (a request failed outright, a job was
// lost); individual job failures are counted, not fatal.
func RunLoad(opts LoadOptions) (LoadResult, error) {
	opts = opts.withDefaults()
	res := LoadResult{Jobs: opts.Jobs}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
		retries   atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	jobIdx := atomic.Int64{}
	var wg sync.WaitGroup
	for c := 0; c < opts.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(jobIdx.Add(1)) - 1
				if i >= opts.Jobs {
					return
				}
				spec := opts.Mix[i%len(opts.Mix)]
				spec.Tag = fmt.Sprintf("loadgen-%d", i)
				view, lat, nretry, err := runOneJob(opts, spec)
				retries.Add(nretry)
				if err != nil {
					fail(fmt.Errorf("job %d: %w", i, err))
					return
				}
				mu.Lock()
				latencies = append(latencies, lat)
				switch view.State {
				case StateDone:
					res.Completed++
				case StateFailed:
					res.Failed++
				case StateCanceled:
					res.Canceled++
				}
				if view.QueueWaitSeconds > 0.001 {
					res.QueuedJobs++
				}
				if view.QueueWaitSeconds > res.QueueWaitMaxSeconds {
					res.QueueWaitMaxSeconds = view.QueueWaitSeconds
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return res, firstErr
	}

	res.WallSeconds = time.Since(start).Seconds()
	res.Retries429 = retries.Load()
	if res.WallSeconds > 0 {
		res.JobsPerSec = float64(res.Completed) / res.WallSeconds
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		q := func(p float64) float64 {
			i := int(p * float64(n-1))
			return latencies[i].Seconds()
		}
		res.LatencyMeanSeconds = (sum / time.Duration(n)).Seconds()
		res.LatencyP50Seconds = q(0.50)
		res.LatencyP95Seconds = q(0.95)
		res.LatencyP99Seconds = q(0.99)
		res.LatencyMaxSeconds = latencies[n-1].Seconds()
	}
	return res, nil
}

// runOneJob submits one job (retrying admission rejections with linear
// backoff), follows its SSE event stream to the terminal state, and
// fetches the final view. Returns the view, the accepted-to-terminal
// latency, and how many 429s were absorbed.
func runOneJob(opts LoadOptions, spec JobSpec) (JobView, time.Duration, int64, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobView{}, 0, 0, err
	}
	var view JobView
	var nretry int64
	for attempt := 1; ; attempt++ {
		resp, err := opts.Client.Post(opts.BaseURL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return JobView{}, 0, nretry, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			nretry++
			time.Sleep(time.Duration(attempt) * opts.RetryDelay)
			continue
		}
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return JobView{}, 0, nretry, fmt.Errorf("submit: %s: %s", resp.Status, b)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return JobView{}, 0, nretry, err
		}
		break
	}
	accepted := time.Now()

	// Follow the event stream; it closes when the job goes terminal.
	// (Streaming rather than polling: the load generator doubles as the
	// SSE soak test.)
	if err := drainEvents(opts.Client, opts.BaseURL, view.ID); err != nil {
		return JobView{}, 0, nretry, err
	}
	lat := time.Since(accepted)

	resp, err := opts.Client.Get(opts.BaseURL + "/jobs/" + view.ID)
	if err != nil {
		return JobView{}, 0, nretry, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobView{}, 0, nretry, fmt.Errorf("get %s: %s", view.ID, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return JobView{}, 0, nretry, err
	}
	if !view.State.Terminal() {
		return JobView{}, 0, nretry, fmt.Errorf("job %s stream closed in state %s", view.ID, view.State)
	}
	return view, lat, nretry, nil
}

// drainEvents reads a job's SSE stream to EOF.
func drainEvents(client *http.Client, baseURL, id string) error {
	resp, err := client.Get(baseURL + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
	}
	return sc.Err()
}
