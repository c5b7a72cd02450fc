// Package mpi provides an in-process SPMD message-passing runtime that
// substitutes for MPI in the p4est/mangll reproduction. Each rank of a
// World is a goroutine with a mutex-guarded mailbox (the one rank fabric,
// named "chan"), and ranks communicate through tagged point-to-point
// messages and collectives built on top of them.
//
// The interface deliberately mirrors the subset of MPI that the paper's
// algorithms use (point-to-point transfer of octants, MPI_Allgather of one
// long integer per core for Partition, allreduce for convergence flags), so
// the forest algorithms read like their MPI formulations. Message payloads
// are passed by reference for efficiency: the sender must not retain or
// mutate a payload after sending it. All collectives must be called by every
// rank of the communicator in the same order, as in MPI.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/trace"
)

// AnySource matches messages from any sending rank in Recv.
const AnySource = -1

// internal tags used by collectives; user tags must be >= 0. Every
// collective type owns a distinct tag so that tree rounds of different
// collectives issued back-to-back (or with different roots) can never
// cross-match: within one tag, correctness rests on the per-channel FIFO
// rule — messages between a fixed (sender, receiver) pair with one tag
// are received in send order, so the k-th matching receive of a channel
// sees the k-th send even when ranks are in different calls of the same
// collective type.
const (
	tagBarrier    = -2
	tagBcast      = -3
	tagGather     = -4
	tagScatter    = -5
	tagPtp        = -6 // reserved base for internal point-to-point phases
	tagAllgather  = -8
	tagAllreduce  = -9
	tagExScan     = -10
	tagSparseUp   = -11 // SparseExchange discovery: reduction toward rank 0
	tagSparseDown = -12 // SparseExchange discovery: scatter of source lists
)

// World owns the rank mailboxes and statistics for a set of ranks.
type World struct {
	size    int
	boxes   []*mailbox // boxes[r] is rank r's receive endpoint
	stats   []Stats
	tracer  *trace.Tracer // the caller's, else an aggregates-only store
	faults  *faultState   // optional; nil runs the zero-overhead path
	met     *worldMetrics // optional; nil disables live metric recording
	workers int           // per-rank kernel worker count (>= 1)
	pools   []*pool.Pool  // per-rank worker pools; nil when workers == 1

	// aborted flips when a rank dies (panic or injected crash). Blocked
	// receivers observe it and unwind instead of deadlocking on messages
	// that will never arrive.
	aborted atomic.Bool
}

// abort marks the world dead and wakes every blocked receiver. Idempotent
// and safe from any goroutine.
func (w *World) abort() {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Comm is one rank's handle to the world. It is not safe for concurrent use
// by multiple goroutines; each rank goroutine owns exactly one Comm.
type Comm struct {
	world *World
	rank  int

	// blockSlot is the reusable receive slot of the rank's blocking
	// receives. A rank has at most one blocking receive outstanding at a
	// time (Comm is single-goroutine), and a completed slot is off the
	// posted list by the time recv returns, so reuse keeps the blocking
	// hot path allocation-free.
	blockSlot recvSlot

	// waitNames caches each tag's wait span name ("recv:"+TagName), so a
	// traced receive builds it once per tag instead of once per receive.
	waitNames map[int]string
}

// Rank returns the calling rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.world.size }

// Transport returns the name of the rank fabric, always DefaultTransport.
func (c *Comm) Transport() string { return DefaultTransport }

// Workers returns the per-rank kernel worker count the world was run with
// (>= 1; 1 means serial kernels).
func (c *Comm) Workers() int { return c.world.workers }

// Pool returns the calling rank's kernel worker pool, or nil when the
// world runs with one worker per rank (the serial path). The pool is
// owned by the rank goroutine: only it may call Start/Wait/Run.
func (c *Comm) Pool() *pool.Pool {
	if c.world.pools == nil {
		return nil
	}
	return c.world.pools[c.rank]
}

// Tracer returns the calling rank's span recorder. It is never nil: a
// world run without RunOptions.Tracer records into a store of its own that
// keeps the running aggregates (RankTracer.Total) and one event per rank.
func (c *Comm) Tracer() *trace.RankTracer {
	return c.world.tracer.Rank(c.rank)
}

// Run executes fn on size ranks concurrently and returns when all complete.
// It panics if size < 1. A panic on any rank propagates to the caller.
func Run(size int, fn func(*Comm)) {
	RunOpt(size, RunOptions{}, fn)
}

// RunErr executes fn on size ranks concurrently. The first non-nil error (by
// rank order) is returned. A panicking rank re-panics in the caller.
func RunErr(size int, fn func(*Comm) error) error {
	return RunErrOpt(size, RunOptions{}, fn)
}

// RunErrOpt executes fn on size ranks with the given options; it is the
// most general Run form, and Run, RunErr and RunOpt spell subsets of it.
// Every rank's receive waits and collectives self-record into a span
// store and instrumented algorithms (core, the solvers) emit their phase
// spans into it: opts.Tracer, which must be sized to the world, or else a
// ring of one event per rank that keeps the running aggregates, so a
// solver can read its phase totals from every world (Comm.Tracer). With
// opts.Plan set, every point-to-point message (and so every collective)
// follows the plan's seeded fault schedule.
//
// A rank that panics aborts the world: peers blocked in receives are
// woken (they unwind with an abortSignal panic, which is discarded — only
// the root cause matters) and the primary panic propagates to the caller,
// so a dying rank surfaces instead of deadlocking the run. An injected
// crash (crashPanic) is converted to the rank's error and returned, which
// is what a checkpoint/restart driver recovers from.
func RunErrOpt(size int, opts RunOptions, fn func(*Comm) error) error {
	tr, plan := opts.Tracer, opts.Plan
	if size < 1 {
		return fmt.Errorf("mpi: world size %d < 1", size)
	}
	if tr == nil {
		tr = trace.NewRing(size, 1)
	} else if tr.NumRanks() != size {
		return fmt.Errorf("mpi: tracer has %d ranks, world has %d", tr.NumRanks(), size)
	}
	if err := CheckTransportEnv(); err != nil {
		return err
	}
	workers, err := ResolveWorkers(opts.Workers)
	if err != nil {
		return err
	}
	w := &World{size: size, tracer: tr, workers: workers}
	if opts.Metrics != nil {
		w.met = newWorldMetrics(opts.Metrics, plan != nil)
	}
	if plan != nil {
		w.faults = newFaultState(plan, size, w.met)
	}
	if workers > 1 {
		// One persistent pool per rank for the world's lifetime; closed
		// after every rank has joined (workers of a rank that panicked out
		// of an Apply finish their batch and exit on the closed wake
		// channel, so teardown never deadlocks).
		w.pools = make([]*pool.Pool, size)
		for i := range w.pools {
			w.pools[i] = pool.New(workers)
			if opts.Metrics != nil {
				w.pools[i].Instrument(opts.Metrics, i)
			}
		}
		defer func() {
			for _, p := range w.pools {
				p.Close()
			}
		}()
	}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(w)
	}
	w.stats = make([]Stats, size)
	errs := make([]error, size)
	panics := make([]any, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		rank := r
		go func() {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				switch v := p.(type) {
				case crashPanic:
					errs[rank] = v.err
				case abortSignal:
					// Secondary casualty: this rank was unblocked by a
					// peer's abort, not the root cause.
				default:
					panics[rank] = p
				}
				w.abort()
			}()
			errs[rank] = fn(&Comm{world: w, rank: rank, waitNames: map[int]string{}})
		}()
	}
	wg.Wait()
	if w.faults != nil {
		// Join the delayed-delivery timers so no goroutine outlives the
		// world.
		w.faults.deliveries.Wait()
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// message is a single in-flight point-to-point payload.
type message struct {
	from    int
	tag     int
	payload any
}

// recvSlot is one posted receive. A slot is registered with the mailbox at
// post time, which fixes its place in the matching order: an arriving
// message is matched against posted slots in posting order before it is
// queued. Both blocking Recv and nonblocking Irecv go through slots, so
// the two are correctly ordered against each other on the same
// (source, tag) channel — the k-th posted matching receive observes the
// k-th matching send, exactly MPI's non-overtaking rule.
type recvSlot struct {
	from, tag int
	done      bool
	msg       message
}

// mailbox is one rank's receive endpoint: the matching engine guarded by
// a mutex, with a condition variable waking blocked receivers. Sends never
// block (MPI buffered-send semantics), which rules out the send-send
// deadlocks that the paper's algorithms avoid by protocol design.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	matcher
	w *World
}

func newMailbox(w *World) *mailbox {
	m := &mailbox{w: w}
	m.cond = sync.NewCond(&m.mu)
	if w.faults != nil {
		m.reorder = make([]linkRecv, w.size)
	}
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.deliver(msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// putSeq is the fault-layer delivery entry point: seq orders the message
// on its (source -> this rank) link. Runs on sender goroutines and on
// fault-delay timers alike.
func (m *mailbox) putSeq(msg message, seq uint64, f *faultState) {
	m.mu.Lock()
	m.deliverSeq(msg, seq, f)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// post registers a receive for (from, tag), completing it immediately if
// a matching message is queued.
func (m *mailbox) post(from, tag int, s *recvSlot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.matcher.post(from, tag, s)
}

// wait blocks until the posted slot completes and returns its message and
// how long it blocked: zero when the message was already in the slot, so a
// receive that never blocked bills no wait. If the world aborts (a peer
// died), wait unwinds with an abortSignal panic instead of blocking forever
// on a message that will never arrive; the Run wrapper discards it.
func (m *mailbox) wait(s *recvSlot) (message, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.done {
		return s.msg, 0
	}
	t0 := time.Now()
	for !s.done {
		if m.w.aborted.Load() {
			panic(abortSignal{})
		}
		m.cond.Wait()
	}
	return s.msg, time.Since(t0)
}

// Send delivers payload to rank `to` with the given tag (tag >= 0). It never
// blocks. Ownership of the payload transfers to the receiver.
func (c *Comm) Send(to, tag int, payload any) {
	if tag < 0 {
		panic("mpi: user tags must be >= 0")
	}
	c.send(to, tag, payload)
}

func (c *Comm) send(to, tag int, payload any) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", to, c.world.size))
	}
	st := &c.world.stats[c.rank]
	bytes := payloadBytes(payload)
	st.MsgsSent++
	st.BytesSent += bytes
	ts := st.tag(tag)
	ts.MsgsSent++
	ts.BytesSent += bytes
	if m := c.world.met; m != nil {
		m.recordSend(c.rank, bytes)
	}
	msg := message{from: c.rank, tag: tag, payload: payload}
	if f := c.world.faults; f != nil {
		f.send(c, to, msg)
		return
	}
	c.world.boxes[to].put(msg)
}

// Recv blocks until a message with the given tag arrives from rank `from`
// (or any rank if from == AnySource) and returns its payload and source.
func (c *Comm) Recv(from, tag int) (payload any, source int) {
	if tag < 0 {
		panic("mpi: user tags must be >= 0")
	}
	return c.recv(from, tag)
}

// recv performs the tag-matched blocking receive and accounts for it: the
// time blocked in the mailbox is the rank's receive-wait (the straggler /
// imbalance signal), recorded both in Stats and as a wait span attributed
// to the enclosing phase. A blocking receive is a post + wait on the
// shared slot machinery, so it is ordered correctly against any Irecv
// posted earlier on the same channel.
func (c *Comm) recv(from, tag int) (any, int) {
	if f := c.world.faults; f != nil {
		f.maybeStall(c)
	}
	box := c.world.boxes[c.rank]
	s := &c.blockSlot
	*s = recvSlot{}
	box.post(from, tag, s)
	msg, wait := box.wait(s)
	c.received(tag, msg.payload, wait)
	return msg.payload, msg.from
}

// received accounts for one completed receive on tag that blocked for
// wait: the rank's and the tag's counters, the live metrics and, when the
// rank did block, a wait span attributed to the enclosing phase. Blocking
// and nonblocking receives share it.
func (c *Comm) received(tag int, payload any, wait time.Duration) {
	st := &c.world.stats[c.rank]
	bytes := payloadBytes(payload)
	st.MsgsRecvd++
	st.BytesRecvd += bytes
	st.RecvWait += wait
	ts := st.tag(tag)
	ts.MsgsRecvd++
	ts.BytesRecvd += bytes
	ts.RecvWait += wait
	if m := c.world.met; m != nil {
		m.recordRecv(c.rank, bytes, int64(wait))
	}
	if wait <= 0 {
		return
	}
	name, ok := c.waitNames[tag]
	if !ok {
		name = "recv:" + TagName(tag)
		c.waitNames[tag] = name
	}
	c.Tracer().AddWait(name, wait)
}
