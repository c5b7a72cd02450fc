package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config sizes the scheduler.
type Config struct {
	// MaxActive is the number of jobs running simultaneously, each in its
	// own rank world. Default 4 — on a small host the worlds time-share
	// anyway; admission control is about bounding footprint, not about
	// pretending the cores exist.
	MaxActive int
	// MaxQueue bounds the admission queue beyond the active set; a submit
	// that finds it full is rejected (HTTP 429), never silently dropped.
	// Default 256.
	MaxQueue int
	// DataDir is the root under which each job gets a private directory.
	// Defaults to a fresh temp dir.
	DataDir string
}

func (c Config) withDefaults() (Config, error) {
	if c.MaxActive == 0 {
		c.MaxActive = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.DataDir == "" {
		dir, err := os.MkdirTemp("", "serve-jobs-")
		if err != nil {
			return c, err
		}
		c.DataDir = dir
	}
	return c, nil
}

// ErrQueueFull is returned by Submit when admission control rejects a job.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by Submit once shutdown has begun.
var ErrDraining = errors.New("serve: scheduler draining")

// Scheduler owns the job queue and the worker loop that runs each
// admitted job in its own mpi rank world.
type Scheduler struct {
	cfg Config
	met *metrics.Registry
	tel *telemetry.Server

	queue chan *Job
	wg    sync.WaitGroup

	draining atomic.Bool
	idSeq    atomic.Uint64

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	active int64    // running-job count behind the jobs_active gauge
}

// NewScheduler starts cfg.MaxActive workers and returns the scheduler.
// The telemetry server, if non-nil, gets the scheduler's own registry
// registered plus each job's solver registries for the duration of its
// run, so one /metrics scrape sees the whole tenant population.
func NewScheduler(cfg Config, tel *telemetry.Server) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:   cfg,
		met:   metrics.NewRegistry(),
		tel:   tel,
		queue: make(chan *Job, cfg.MaxQueue),
		jobs:  map[string]*Job{},
	}
	if tel != nil {
		tel.Register("scheduler", 0, s.met)
	}
	for i := 0; i < cfg.MaxActive; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the scheduler's registry (jobs_* counters, queue
// gauges, latency histograms).
func (s *Scheduler) Metrics() *metrics.Registry { return s.met }

// DataDir returns the root job directory.
func (s *Scheduler) DataDir() string { return s.cfg.DataDir }

// Submit validates the spec, applies admission control, and enqueues the
// job. It returns ErrQueueFull when the bounded queue is at capacity and
// ErrDraining after Drain has been called; validation failures return the
// underlying error. Admission is a non-blocking channel send: the caller
// learns the verdict immediately.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		s.met.Counter("jobs_rejected").Add(1)
		return nil, ErrDraining
	}
	id := fmt.Sprintf("j%06d", s.idSeq.Add(1))
	j := &Job{
		ID:     id,
		Spec:   spec,
		Dir:    filepath.Join(s.cfg.DataDir, id),
		events: newEventLog(),
	}
	j.state = StateQueued
	j.submitted = time.Now()
	// Log "queued" before the enqueue: the moment the job is on the
	// channel a worker may pick it up and log "running".
	j.events.append("state", map[string]any{"state": string(StateQueued)})

	select {
	case s.queue <- j:
	default:
		s.met.Counter("jobs_rejected").Add(1)
		return nil, ErrQueueFull
	}

	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.met.Counter("jobs_submitted").Add(1)
	s.met.Gauge("jobs_queued").Set(int64(len(s.queue)))
	return j, nil
}

// Job returns the job with the given id, or nil.
func (s *Scheduler) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns all jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a job by id; ok=false if no such job.
// Queued jobs are dropped when a worker picks them up; running jobs stop
// at the next step boundary (all ranks agree via a broadcast flag).
func (s *Scheduler) Cancel(id string) bool {
	j := s.Job(id)
	if j == nil {
		return false
	}
	j.Cancel()
	return true
}

// Drain stops admission and waits for every queued and running job to
// reach a terminal state — the graceful-shutdown path: in-flight tenants
// finish, new ones get ErrDraining.
func (s *Scheduler) Drain() {
	if s.draining.Swap(true) {
		s.wg.Wait()
		return
	}
	close(s.queue)
	s.wg.Wait()
}

// worker is one of MaxActive job-execution loops.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.met.Gauge("jobs_queued").Set(int64(len(s.queue)))
		if j.canceled.Load() {
			j.setState(StateCanceled, nil)
			s.met.Counter("jobs_canceled").Add(1)
			continue
		}
		s.met.Gauge("jobs_active").Set(s.activeDelta(1))
		s.runOne(j)
		s.met.Gauge("jobs_active").Set(s.activeDelta(-1))
	}
}

// activeDelta tracks the active-job gauge under the scheduler mutex (two
// workers finishing at once must not lose an update).
func (s *Scheduler) activeDelta(d int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active += d
	return s.active
}

// runOne executes one job start to terminal state and records the
// scheduler-level outcome metrics.
func (s *Scheduler) runOne(j *Job) {
	queueWait := time.Since(j.submitted)
	j.setState(StateRunning, map[string]any{
		"queue_wait_seconds": queueWait.Seconds(),
	})
	s.met.Histogram("job_queue_wait", metrics.UnitDuration).ObserveDuration(queueWait)

	start := time.Now()
	err := s.runJob(j)
	run := time.Since(start)
	s.met.Histogram("job_run", metrics.UnitDuration).ObserveDuration(run)
	s.met.Histogram("job_latency", metrics.UnitDuration).ObserveDuration(time.Since(j.submitted))

	switch {
	case errors.Is(err, sim.ErrCanceled):
		j.setState(StateCanceled, nil)
		s.met.Counter("jobs_canceled").Add(1)
	case err == nil:
		j.setState(StateDone, nil)
		s.met.Counter("jobs_completed").Add(1)
	default:
		j.fail(err)
		s.met.Counter("jobs_failed").Add(1)
	}
}
