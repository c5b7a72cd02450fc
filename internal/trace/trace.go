// Package trace provides the per-rank structured tracing and profiling
// layer for the AMR pipeline. Every phase of the reproduction (New, Refine,
// Partition, Balance, Ghost, Nodes, and the application solve/adapt loops)
// emits nestable spans into a Tracer; the message-passing runtime adds
// receive-wait spans so blocked time in collectives is attributed to the
// phase that incurred it. A Tracer can be exported as a Chrome
// trace-event / Perfetto JSON file (one track per rank) and aggregated into
// the per-phase min/median/max/imbalance report the paper's Figure 4
// analysis relies on.
//
// Design constraints, in order:
//
//  1. Always on inside a run: mpi gives a world run without a Tracer a
//     ring of one event per rank, so every rank can read its own phase
//     totals (RankTracer.Total) and instrumented code needs no checks. A
//     nil *Tracer / *RankTracer is still valid outside a run, and every
//     method on it is a no-op.
//  2. No locks on the hot path: each rank goroutine owns exactly one
//     RankTracer and records into its own preallocated span store (one
//     buffer, unbounded or with a capacity); the stores are only read
//     after the rank goroutines have finished (mpi.Run joins them), so no
//     synchronization is needed. Every completed span also updates the
//     running aggregate of its name — per-rank count, sum and wait, and
//     one duration distribution shared by the ranks — with atomic adds, so
//     the report, /metrics and the manifests read the whole run, also from
//     a ring, and may do so while the ranks record. A rank takes the
//     tracer's mutex once per span name, on its first use.
//  3. Monotonic time: span timestamps are time.Since(epoch) durations, so
//     they are immune to wall-clock adjustments and directly comparable
//     across ranks of one run.
package trace

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Category classifies a span for export and wait attribution.
type Category uint8

const (
	// CatPhase marks algorithm phases (the default).
	CatPhase Category = iota
	// CatComm marks message-passing operations (collectives, exchanges).
	CatComm
	// CatWait marks leaf spans of time spent blocked waiting for messages.
	// Wait spans are the only spans counted by wait attribution; keeping
	// them leaves prevents double counting when collectives nest.
	CatWait
	// CatFault marks instant events emitted by the fault-injection layer
	// (injected drops, duplicate deliveries, retries), so a chaos run's
	// trace shows where the transport misbehaved.
	CatFault
)

// String returns the Chrome-trace category label.
func (c Category) String() string {
	switch c {
	case CatComm:
		return "comm"
	case CatWait:
		return "wait"
	case CatFault:
		return "fault"
	}
	return "phase"
}

// Arg is one key/value annotation attached to a span (e.g. balance rounds).
type Arg struct {
	Key string
	Val int64
}

// Event is one completed (or still-open) span on one rank. Start is
// monotonic time since the Tracer epoch; Dur is negative while the span is
// open. Wait accumulates the blocked time of CatWait descendants, giving
// each phase its wait-vs-compute split without post-processing.
type Event struct {
	Name  string
	Cat   Category
	Start time.Duration
	Dur   time.Duration
	Depth int
	Wait  time.Duration
	Args  []Arg
}

// openDur marks an event whose End has not run yet.
const openDur = time.Duration(-1)

// waitEventMin is the shortest blocked interval emitted as its own wait
// span in the trace; shorter waits are still accumulated into the
// enclosing spans' Wait totals. The floor keeps fine-grained exchanges
// from flooding the trace with sub-microsecond events.
const waitEventMin = 20 * time.Microsecond

// Tracer owns the per-rank span stores of one traced run. Create it with
// New or NewRing sized to the world, hand it to a run as
// mpi.RunOptions.Tracer, and read its events (Events, export) only after
// the run has completed; its running aggregates (Totals, Aggregate) may
// be read at any time.
//
// Each rank's store is one buffer of completed spans plus a stack of open
// ones. New leaves the buffer unbounded (offline Chrome-trace export of a
// bounded run); NewRing gives it a capacity, past which each completed
// span overwrites the oldest, so it is safe to leave on for arbitrarily
// long runs: the crash flight recorder's window. Open spans are always
// kept. The running aggregates (Totals) are not bounded: both kinds
// report the whole run.
type Tracer struct {
	epoch time.Time
	now   func() time.Duration // monotonic clock; replaced by tests
	ranks []*RankTracer

	mu    sync.Mutex
	stats []*SpanStats // in first-use order; guarded by mu
}

// spanKey identifies one aggregate: a span name in one category.
type spanKey struct {
	name string
	cat  Category
}

// SpanStats is the running aggregate of one span name and category over
// the whole run: one slot per rank, written only by that rank with
// atomic adds, and the distribution of single span durations, shared by
// the ranks (nil for fault marks).
type SpanStats struct {
	Name  string
	Cat   Category
	Dist  *metrics.Histogram
	ranks []struct{ count, sum, wait atomic.Int64 }
}

// Rank reads rank r's span count, summed duration and summed receive wait.
func (s *SpanStats) Rank(r int) (n int64, sum, wait time.Duration) {
	rs := &s.ranks[r]
	return rs.count.Load(), time.Duration(rs.sum.Load()), time.Duration(rs.wait.Load())
}

// New returns a Tracer with one unbounded span store per rank.
func New(numRanks int) *Tracer { return newTracer(numRanks, 0) }

// NewRing returns a Tracer that retains only the newest capPerRank
// completed events per rank (plus the spans still open), overwriting the
// oldest. The store is allocated up front, so steady-state recording does
// not allocate.
func NewRing(numRanks, capPerRank int) *Tracer {
	return newTracer(numRanks, max(capPerRank, 1))
}

// newTracer builds numRanks span stores of capacity limit (0: unbounded).
func newTracer(numRanks, limit int) *Tracer {
	if numRanks < 1 {
		panic("trace: numRanks < 1")
	}
	t := &Tracer{epoch: time.Now()}
	t.now = func() time.Duration { return time.Since(t.epoch) }
	t.ranks = make([]*RankTracer, numRanks)
	for i := range t.ranks {
		t.ranks[i] = &RankTracer{
			tracer: t,
			rank:   i,
			limit:  limit,
			done:   make([]Event, 0, cmp.Or(limit, 4096)),
			stats:  make(map[spanKey]*SpanStats),
		}
	}
	return t
}

// NumRanks returns the number of rank stores (0 for a nil Tracer).
func (t *Tracer) NumRanks() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Rank returns rank r's tracer, or nil for a nil Tracer, so call sites
// stay nil-safe without checking the Tracer first.
func (t *Tracer) Rank(r int) *RankTracer {
	if t == nil {
		return nil
	}
	return t.ranks[r]
}

// RankTracer records the spans of one rank goroutine. It must only be used
// by the goroutine that owns the rank; this is what makes the hot path
// lock-free.
type RankTracer struct {
	tracer *Tracer
	rank   int

	open  []Event // open spans, outermost first, each with Dur == openDur
	done  []Event // completed events; a ring once limit > 0 and it is full
	head  int     // index of the oldest event of a full ring
	limit int     // capacity of done; 0 means unbounded

	stats map[spanKey]*SpanStats // this rank's view of Tracer.stats
}

// push stores a finished event and adds it to its name's running
// aggregate; wait spans are not aggregated (their time is already in the
// enclosing spans' Wait). Once a bounded store is full, the event
// overwrites the oldest one.
func (r *RankTracer) push(ev Event) {
	if ev.Cat != CatWait {
		k := spanKey{ev.Name, ev.Cat}
		s := r.stats[k]
		if s == nil {
			s = r.tracer.spanStats(k)
			r.stats[k] = s
		}
		rs := &s.ranks[r.rank]
		rs.count.Add(1)
		rs.sum.Add(int64(ev.Dur))
		rs.wait.Add(int64(ev.Wait))
		if s.Dist != nil {
			s.Dist.Observe(int64(ev.Dur))
		}
	}
	if r.limit == 0 || len(r.done) < r.limit {
		r.done = append(r.done, ev)
		return
	}
	r.done[r.head] = ev
	r.head = (r.head + 1) % r.limit
}

// spanStats returns the aggregate of k, creating it on the first use by
// any rank.
func (t *Tracer) spanStats(k spanKey) *SpanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.stats {
		if s.Name == k.name && s.Cat == k.cat {
			return s
		}
	}
	s := &SpanStats{Name: k.name, Cat: k.cat}
	s.ranks = make([]struct{ count, sum, wait atomic.Int64 }, len(t.ranks))
	if k.cat == CatPhase || k.cat == CatComm {
		s.Dist = metrics.NewHistogram(k.name, metrics.UnitDuration)
	}
	t.stats = append(t.stats, s)
	return s
}

// Total returns the summed duration of this rank's completed CatPhase
// spans called name over the whole run, 0 if none has completed. Like
// every recording method it must only be called from the owning rank
// goroutine.
func (r *RankTracer) Total(name string) time.Duration {
	if r == nil {
		return 0
	}
	s := r.stats[spanKey{name, CatPhase}]
	if s == nil {
		return 0
	}
	_, sum, _ := s.Rank(r.rank)
	return sum
}

// Rank returns the owning rank id.
func (r *RankTracer) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// Begin opens a CatPhase span. Spans nest: every Begin must be matched by
// an End on the same rank, innermost first.
func (r *RankTracer) Begin(name string) { r.BeginCat(name, CatPhase) }

// BeginCat opens a span with an explicit category.
func (r *RankTracer) BeginCat(name string, cat Category) {
	if r == nil {
		return
	}
	r.open = append(r.open, Event{
		Name:  name,
		Cat:   cat,
		Start: r.tracer.now(),
		Dur:   openDur,
		Depth: len(r.open),
	})
}

// End closes the innermost open span. End on a nil tracer or an empty
// stack is a no-op.
func (r *RankTracer) End() {
	if r == nil || len(r.open) == 0 {
		return
	}
	n := len(r.open) - 1
	ev := r.open[n]
	ev.Dur = r.tracer.now() - ev.Start
	r.open = r.open[:n]
	r.push(ev)
}

// Span runs fn inside a span. The span closes even if fn panics.
func (r *RankTracer) Span(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	r.Begin(name)
	defer r.End()
	fn()
}

// Arg annotates the innermost open span with a key/value pair (exported
// into the Chrome trace's args).
func (r *RankTracer) Arg(key string, v int64) {
	if r == nil || len(r.open) == 0 {
		return
	}
	sp := &r.open[len(r.open)-1]
	sp.Args = append(sp.Args, Arg{Key: key, Val: v})
}

// AddWait records d of blocked time ending now (e.g. one Recv that had to
// wait). The duration is accumulated into every open span's Wait total —
// attributing it to the enclosing phase — and, if long enough to matter,
// also emitted as a leaf CatWait span.
func (r *RankTracer) AddWait(name string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	for i := range r.open {
		r.open[i].Wait += d
	}
	if d >= waitEventMin {
		r.push(Event{
			Name:  name,
			Cat:   CatWait,
			Start: r.tracer.now() - d,
			Dur:   d,
			Depth: len(r.open),
		})
	}
}

// AddCompleted records a leaf span that was measured elsewhere — e.g. on
// a kernel-pool worker goroutine whose writes were published to the rank
// before this call — as a completed event starting at wall time start and
// lasting d. The recording itself still happens on the owning rank
// goroutine (the pool orchestrator emits its workers' spans after joining
// the job), which is what keeps the buffers single-writer. start is
// converted onto the tracer's monotonic epoch clock.
func (r *RankTracer) AddCompleted(name string, cat Category, start time.Time, d time.Duration) {
	if r == nil || d < 0 {
		return
	}
	r.push(Event{
		Name:  name,
		Cat:   cat,
		Start: start.Sub(r.tracer.epoch),
		Dur:   d,
		Depth: len(r.open),
	})
}

// Mark records an instant (zero-duration) leaf event of the given
// category at the current time — the form the fault-injection layer uses
// for injected drops, duplicates, and retries. Like every RankTracer
// method it is nil-safe and must only be called from the owning rank
// goroutine.
func (r *RankTracer) Mark(name string, cat Category) {
	if r == nil {
		return
	}
	r.push(Event{
		Name:  name,
		Cat:   cat,
		Start: r.tracer.now(),
		Depth: len(r.open),
	})
}

// Events returns a copy of the rank's retained spans in the order they
// began (by start time, outer before inner), including the spans still
// open (Dur < 0). Only call it after the rank goroutine has finished.
func (r *RankTracer) Events() []Event {
	if r == nil {
		return nil
	}
	out := slices.Concat(r.done[r.head:], r.done[:r.head], r.open)
	slices.SortStableFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Depth, b.Depth))
	})
	return out
}
