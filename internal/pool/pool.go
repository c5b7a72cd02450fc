// Package pool provides the per-rank worker pool behind mangll's kernel
// API: a fixed set of persistent goroutines that execute pre-partitioned
// batches of element work. The pool exists to use cores the rank's own
// goroutine cannot: it multiplies each rank by the per-rank worker count
// so the volume and face kernels of one rank run on several cores at once.
//
// Determinism is the caller's contract, not the pool's: the pool promises
// only that every batch index in [0, n) is executed exactly once per job
// and that all writes made by batch bodies happen-before Wait returns.
// Callers get bitwise-reproducible results by partitioning work so no two
// batches write the same memory (mangll batches whole elements, and dG
// elements share no output nodes).
//
// Batches are claimed greedily off a shared atomic counter, so a worker
// that finishes early steals the next unstarted batch instead of idling —
// the cheap 90% of a work-stealing deque, without per-worker queues. The
// home assignment used for steal accounting is round-robin
// (batch % workers).
package pool

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Stat describes one worker's share of the most recently completed job.
type Stat struct {
	// Batches is how many batches the worker executed.
	Batches int
	// Steals counts executed batches whose round-robin home was another
	// worker — nonzero steals mean the static assignment was imbalanced
	// and the greedy claim evened it out.
	Steals int
	// Start is when the worker began its first batch (zero time if it
	// claimed none).
	Start time.Time
	// Busy is the wall time from the first claim to the last batch end.
	Busy time.Duration
}

// Pool runs batch jobs on a fixed set of persistent workers. A Pool is
// owned by one orchestrator goroutine: Start/Wait/Run/Stats/Close must
// all be called from it. Only the batch bodies run concurrently.
//
// New(1) degenerates to inline execution on the caller — no goroutines,
// no channels, no per-job allocation — so a serial configuration pays
// nothing for routing its work through the pool API.
type Pool struct {
	workers int

	// Per-job state, written by the orchestrator before waking workers
	// (the wake send publishes it) and read back after the done tokens
	// (the done receive publishes worker writes).
	fn     func(worker, batch int)
	nbatch int
	next   atomic.Int64
	stats  []Stat
	panics []any

	wake []chan struct{} // one per worker, buffered 1
	done chan struct{}   // buffered workers: a worker never blocks sending

	pending int // done tokens outstanding for the current job
	met     *poolMetrics
}

// New creates a pool with the given number of workers (values below 1 are
// clamped to 1). Workers are persistent goroutines; call Close when the
// pool's rank exits so they do not leak.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		stats:   make([]Stat, workers),
		panics:  make([]any, workers),
	}
	if workers == 1 {
		return p
	}
	p.wake = make([]chan struct{}, workers)
	p.done = make(chan struct{}, workers)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

// Workers returns the worker count (>= 1).
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(worker, batch) for every batch in [0, n) and returns
// when all have completed. Equivalent to Start followed by Wait.
func (p *Pool) Run(n int, fn func(worker, batch int)) {
	p.Start(n, fn)
	p.Wait()
}

// Start launches a job asynchronously: workers begin claiming batches and
// the orchestrator may overlap its own work (e.g. completing a ghost
// exchange) before joining with Wait. At most one job may be outstanding.
// With one worker the job runs inline and Start returns only when it is
// complete.
func (p *Pool) Start(n int, fn func(worker, batch int)) {
	if p.pending != 0 {
		panic("pool: Start with a job outstanding")
	}
	if p.workers == 1 {
		p.inline(n, fn)
		return
	}
	p.fn = fn
	p.nbatch = n
	p.next.Store(0)
	p.pending = p.workers
	for _, c := range p.wake {
		c <- struct{}{}
	}
}

// Wait joins the outstanding job: it blocks until every worker has
// finished claiming, records pool metrics, and re-panics the first worker
// panic (after all workers have quiesced, so a panicking kernel unwinds
// the orchestrator exactly like a serial panic would). Wait after an
// inline (single-worker) Start is a no-op.
func (p *Pool) Wait() {
	for p.pending > 0 {
		<-p.done
		p.pending--
	}
	p.record()
	for i, pc := range p.panics {
		if pc != nil {
			p.panics[i] = nil
			panic(pc)
		}
	}
}

// Stats returns the per-worker accounting of the most recently completed
// job. The slice is reused across jobs; it is valid until the next Start.
func (p *Pool) Stats() []Stat { return p.stats }

// Close shuts the workers down. Safe to call with an abandoned job in
// flight (an orchestrator that panicked between Start and Wait): workers
// finish their current batch, observe the closed wake channel, and exit.
func (p *Pool) Close() {
	for _, c := range p.wake {
		close(c)
	}
}

// inline is the single-worker path: the orchestrator runs every batch
// itself, in order, with no synchronization.
func (p *Pool) inline(n int, fn func(worker, batch int)) {
	st := &p.stats[0]
	*st = Stat{}
	if n > 0 {
		st.Start = time.Now()
		for b := 0; b < n; b++ {
			fn(0, b)
		}
		st.Batches = n
		st.Busy = time.Since(st.Start)
	}
	p.nbatch = n
	p.record()
}

func (p *Pool) worker(id int) {
	for range p.wake[id] {
		p.runJob(id)
		p.done <- struct{}{}
	}
}

// runJob claims batches off the shared counter until the job is drained.
// A panicking batch body stops this worker's participation (other workers
// drain the rest) and is re-thrown by Wait.
func (p *Pool) runJob(id int) {
	defer func() {
		if r := recover(); r != nil {
			p.panics[id] = r
		}
	}()
	st := &p.stats[id]
	*st = Stat{}
	n, w, fn := p.nbatch, p.workers, p.fn
	for {
		b := int(p.next.Add(1)) - 1
		if b >= n {
			break
		}
		if st.Batches == 0 {
			st.Start = time.Now()
		}
		if b%w != id {
			st.Steals++
		}
		fn(id, b)
		st.Batches++
	}
	if st.Batches > 0 {
		st.Busy = time.Since(st.Start)
	}
}

// poolMetrics holds pre-resolved instrument handles (the worldMetrics
// pattern): recording a job is a few atomic adds, no map lookups.
type poolMetrics struct {
	shard   int
	jobs    *metrics.Counter
	steals  *metrics.Counter
	idle    *metrics.Counter
	batches *metrics.Histogram // batches per worker per job
	busy    *metrics.Histogram // per-worker busy wall time per job
}

// Instrument attaches a metrics registry: every completed job records the
// pool_* series (exported over /metrics as amr_pool_*) at the given shard
// — one shard per rank, like the mpi_* counters. Call before the first
// job; nil reg disables recording.
func (p *Pool) Instrument(reg *metrics.Registry, shard int) {
	if reg == nil {
		return
	}
	if shard < 0 || shard >= reg.Shards() {
		shard = 0
	}
	p.met = &poolMetrics{
		shard:   shard,
		jobs:    reg.Counter("pool_jobs"),
		steals:  reg.Counter("pool_steals"),
		idle:    reg.Counter("pool_idle_workers"),
		batches: reg.Histogram("pool_batches_per_worker", metrics.UnitNone),
		busy:    reg.Histogram("pool_worker_busy", metrics.UnitDuration),
	}
}

func (p *Pool) record() {
	m := p.met
	if m == nil {
		return
	}
	m.jobs.AddShard(m.shard, 1)
	for i := range p.stats {
		st := &p.stats[i]
		m.batches.ObserveShard(m.shard, int64(st.Batches))
		if st.Batches == 0 {
			m.idle.AddShard(m.shard, 1)
			continue
		}
		m.steals.AddShard(m.shard, int64(st.Steals))
		m.busy.ObserveShard(m.shard, int64(st.Busy))
	}
}
