package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Fault injection turns the runtime from a fair-weather machine into one
// whose transport can misbehave the way 220k cores' worth of network
// does: messages can be delayed, reordered, duplicated, or transiently
// dropped, ranks can stall, and a chosen rank can be crashed at a chosen
// step. The perturbations live strictly between the send call and the
// mailbox matching engine:
//
//   - every logical message carries a per-link (sender->receiver)
//     sequence number assigned at the send call;
//   - the fault layer decides each message's fate deterministically from
//     (seed, link, sequence number) alone, so a fixed seed reproduces the
//     identical fault schedule regardless of goroutine interleaving;
//   - a transient drop is healed by the send-side retry protocol: the
//     sender retransmits after RetryTimeout, up to MaxAttempts attempts,
//     with the final attempt always delivered (at-least-once delivery);
//   - the receiving mailbox reassembles each link with a sequence-number
//     window: duplicates (seq already delivered or already held) are
//     discarded, out-of-order arrivals are held back until the gap fills,
//     and messages enter the matching engine in exactly send order.
//
// Because delivery into the matching engine is restored to per-link send
// order and exactly-once, every guarantee the fault-free runtime makes
// (per-channel FIFO, non-overtaking posted receives, deterministic
// collective reductions) survives an arbitrary seeded fault plan: the
// collectives and both solvers produce bitwise-identical results with and
// without faults. When no plan is installed, none of this code runs — the
// hot path is the unchanged zero-allocation blocking/nonblocking path.

// FaultPlan is a seeded schedule of transport and process faults,
// installed on a world at Run time as RunOptions.Plan. The
// probability fields are per-message (or per-call, for Stall) in [0, 1].
// The zero value of every field is benign; a zero-probability plan still
// exercises the sequencing/reassembly path (useful for measuring its
// overhead) but injects nothing.
type FaultPlan struct {
	Seed int64 // fault schedule seed; same seed => same schedule

	Drop    float64 // P(a delivery attempt is transiently dropped)
	Dup     float64 // P(a message is delivered twice)
	Delay   float64 // P(a message gets extra latency in [0, MaxDelay))
	Reorder float64 // P(a message is held back a full MaxDelay, letting later traffic overtake it)
	Stall   float64 // P(a send/recv call stalls the calling rank for StallTime)

	MaxDelay     time.Duration // injected-latency bound (default 200us)
	StallTime    time.Duration // length of one injected rank stall (default 200us)
	RetryTimeout time.Duration // sender retransmit timeout after a drop (default 200us)
	MaxAttempts  int           // delivery attempts before forced success (default 8)

	// CrashRank/CrashStep inject a process fault: Comm.CrashPoint(step)
	// panics on CrashRank when step == CrashStep, the run aborts (peers
	// blocked in receives are woken instead of deadlocking), and the
	// crash surfaces from RunErrOpt as a *CrashError. CrashRank < 0
	// disables the crash.
	CrashRank int
	CrashStep int
}

// FaultStats are the world-total fault-injection counters of one run.
type FaultStats struct {
	Drops    int64 // delivery attempts transiently dropped
	Retries  int64 // retransmissions that healed a drop (== Drops: the final attempt always lands)
	Dups     int64 // duplicate deliveries injected
	Dedups   int64 // copies discarded by receive-side sequence dedup
	Delays   int64 // messages given extra latency
	Reorders int64 // messages held back so later traffic overtakes them
	Stalls   int64 // injected rank stalls
}

// CrashError reports an injected rank crash (see FaultPlan.CrashRank).
type CrashError struct {
	Rank int
	Step int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mpi: injected crash of rank %d at step %d", e.Rank, e.Step)
}

// IsInjectedCrash reports whether err is (or wraps) an injected-crash
// error, the condition a checkpoint/restart driver recovers from.
func IsInjectedCrash(err error) bool {
	var ce *CrashError
	return errors.As(err, &ce)
}

// crashPanic carries an injected crash out of CrashPoint; the Run wrapper
// converts it into the rank's error instead of a propagated panic.
type crashPanic struct{ err *CrashError }

// abortSignal is the panic value used to unwind ranks that were blocked
// in a receive when the world aborted (peer panic or injected crash). The
// Run wrapper discards it: only the root cause propagates.
type abortSignal struct{}

// CrashPoint is the step boundary hook of the injected process fault:
// solvers call it once per time step, and the plan's crash rank panics at
// the plan's crash step. Without a plan (or on other ranks/steps) it is a
// single nil check.
func (c *Comm) CrashPoint(step int) {
	f := c.world.faults
	if f == nil || f.plan.CrashRank != c.rank || f.plan.CrashStep != step {
		return
	}
	panic(crashPanic{&CrashError{Rank: c.rank, Step: step}})
}

// FaultStats returns the world-total fault counters accumulated so far
// (zero when no plan is installed).
func (c *Comm) FaultStats() FaultStats {
	f := c.world.faults
	if f == nil {
		return FaultStats{}
	}
	return FaultStats{
		Drops:    f.drops.Load(),
		Retries:  f.retries.Load(),
		Dups:     f.dups.Load(),
		Dedups:   f.dedups.Load(),
		Delays:   f.delays.Load(),
		Reorders: f.reorders.Load(),
		Stalls:   f.stalls.Load(),
	}
}

// faultState is the per-world runtime of an installed plan.
type faultState struct {
	plan FaultPlan
	size int

	// nextSeq[from*size+to] numbers the messages of one directed link.
	// Row `from` is only written by rank from's goroutine.
	nextSeq []uint64
	// stallCnt[rank] counts the rank's send/recv calls for the stall
	// schedule; owned by the rank goroutine.
	stallCnt []uint64

	// deliveries tracks in-flight delayed deliveries (timers) so Run can
	// join them before tearing the world down.
	deliveries sync.WaitGroup

	// live, when the world has a metrics registry attached, mirrors the
	// counters below into it as events happen, so a telemetry scrape during
	// a chaos run sees the fault activity in flight.
	live *worldMetrics

	drops, retries, dups, dedups, delays, reorders, stalls atomic.Int64
}

func newFaultState(plan *FaultPlan, size int, live *worldMetrics) *faultState {
	f := &faultState{plan: *plan, size: size, live: live}
	if f.plan.MaxDelay <= 0 {
		f.plan.MaxDelay = 200 * time.Microsecond
	}
	if f.plan.StallTime <= 0 {
		f.plan.StallTime = 200 * time.Microsecond
	}
	if f.plan.RetryTimeout <= 0 {
		f.plan.RetryTimeout = 200 * time.Microsecond
	}
	if f.plan.MaxAttempts <= 0 {
		f.plan.MaxAttempts = 8
	}
	f.nextSeq = make([]uint64, size*size)
	f.stallCnt = make([]uint64, size)
	return f
}

// dedup counts one discarded duplicate copy, attributed to the sending
// rank's lane. Runs on sender goroutines and delivery timers (counters are
// atomic).
func (f *faultState) dedup(from int) {
	f.dedups.Add(1)
	if f.live != nil {
		f.live.dedups.AddShard(f.live.shard(from), 1)
	}
}

// Deterministic schedule: every decision is a pure function of
// (seed, decision kind, link, sequence number), hashed through the
// splitmix64 finalizer. Goroutine interleaving and wall-clock timing
// cannot change which faults are injected.
const (
	kindDrop = iota + 1
	kindDup
	kindDupDelay
	kindDelay
	kindDelayAmt
	kindReorder
	kindStall
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a uniform value in [0, 1) for the given decision.
func (f *faultState) roll(kind, from, to int, seq, n uint64) float64 {
	h := mix64(uint64(f.plan.Seed) + 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(kind))
	h = mix64(h ^ uint64(from)<<32 ^ uint64(to))
	h = mix64(h ^ seq)
	h = mix64(h ^ n)
	return float64(h>>11) / (1 << 53)
}

// maybeStall injects a rank stall at a send/recv call site. Runs on the
// calling rank's goroutine, so recording into its tracer is safe.
func (f *faultState) maybeStall(c *Comm) {
	cnt := f.stallCnt[c.rank]
	f.stallCnt[c.rank] = cnt + 1
	if f.plan.Stall <= 0 || f.roll(kindStall, c.rank, c.rank, cnt, 0) >= f.plan.Stall {
		return
	}
	f.stalls.Add(1)
	if f.live != nil {
		f.live.stalls.AddShard(f.live.shard(c.rank), 1)
	}
	time.Sleep(f.plan.StallTime)
	c.Tracer().AddWait("fault:stall", f.plan.StallTime)
}

// send pushes one logical message through the fault schedule: decide the
// number of dropped attempts, the extra latency, and whether a duplicate
// copy is delivered, then hand the copies to the receiver's reassembly
// window (putSeq), which restores per-link order and exactly-once
// delivery into the matching engine. Runs on the sender's goroutine.
func (f *faultState) send(c *Comm, to int, msg message) {
	link := c.rank*f.size + to
	seq := f.nextSeq[link]
	f.nextSeq[link] = seq + 1
	f.maybeStall(c)
	tr := c.Tracer()

	// Send-side retry: attempts 1..MaxAttempts-1 may be dropped; the
	// surviving attempt is delivered after the preceding timeouts.
	drops := 0
	for drops < f.plan.MaxAttempts-1 &&
		f.roll(kindDrop, c.rank, to, seq, uint64(drops)) < f.plan.Drop {
		drops++
	}
	var delay time.Duration
	if drops > 0 {
		f.drops.Add(int64(drops))
		f.retries.Add(int64(drops))
		if f.live != nil {
			s := f.live.shard(c.rank)
			f.live.drops.AddShard(s, int64(drops))
			f.live.retries.AddShard(s, int64(drops))
		}
		delay += time.Duration(drops) * f.plan.RetryTimeout
		for i := 0; i < drops; i++ {
			tr.Mark("fault:drop", trace.CatFault)
		}
	}
	if f.plan.Delay > 0 && f.roll(kindDelay, c.rank, to, seq, 0) < f.plan.Delay {
		f.delays.Add(1)
		if f.live != nil {
			f.live.delays.AddShard(f.live.shard(c.rank), 1)
		}
		delay += time.Duration(f.roll(kindDelayAmt, c.rank, to, seq, 0) * float64(f.plan.MaxDelay))
	}
	if f.plan.Reorder > 0 && f.roll(kindReorder, c.rank, to, seq, 0) < f.plan.Reorder {
		f.reorders.Add(1)
		if f.live != nil {
			f.live.reorders.AddShard(f.live.shard(c.rank), 1)
		}
		delay += f.plan.MaxDelay
		tr.Mark("fault:reorder", trace.CatFault)
	}

	// Undelayed deliveries happen on the sender's goroutine, delayed ones
	// on a timer; the sequence windows restore per-link order across the
	// two paths.
	box := c.world.boxes[to]
	if delay <= 0 {
		box.putSeq(msg, seq, f)
	} else {
		f.deliveries.Add(1)
		time.AfterFunc(delay, func() {
			box.putSeq(msg, seq, f)
			f.deliveries.Done()
		})
	}

	if f.plan.Dup > 0 && f.roll(kindDup, c.rank, to, seq, 0) < f.plan.Dup {
		f.dups.Add(1)
		if f.live != nil {
			f.live.dups.AddShard(f.live.shard(c.rank), 1)
		}
		tr.Mark("fault:dup", trace.CatFault)
		dupDelay := delay + time.Duration(f.roll(kindDupDelay, c.rank, to, seq, 0)*float64(f.plan.MaxDelay))
		f.deliveries.Add(1)
		time.AfterFunc(dupDelay, func() {
			box.putSeq(msg, seq, f)
			f.deliveries.Done()
		})
	}
}
