package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// chaosPlan is the canonical aggressive schedule used by the bitwise
// tests: every fault class is common, delays are short enough that the
// suite stays fast under -race.
func chaosPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		Seed:         seed,
		Drop:         0.25,
		Dup:          0.25,
		Delay:        0.25,
		Reorder:      0.25,
		Stall:        0.05,
		MaxDelay:     200 * time.Microsecond,
		StallTime:    50 * time.Microsecond,
		RetryTimeout: 100 * time.Microsecond,
		CrashRank:    -1,
	}
}

// chaosWorkload exercises every collective, point-to-point path, and the
// nonblocking API, folding all received values into one string whose
// bitwise content the fault-injection tests compare across runs. Float
// reductions use values that would differ under a changed reduction
// order, so a reordering slipping past the reassembly window would show.
func chaosWorkload(c *Comm) string {
	var sb strings.Builder
	p := c.Size()
	r := c.Rank()
	for round := 0; round < 4; round++ {
		v := (float64(r) + 0.1) * 1.7 / float64(round+1)
		sum := AllreduceSumFloat(c, v)
		mx := AllreduceMax(c, v)
		all := Allgather(c, r*10+round)
		sc := ExScan(c, v, func(a, b float64) float64 { return a + b })
		g := Gather(c, round%p, r)
		bc := Bcast(c, (round+1)%p, r*100+round)
		any := AllreduceOr(c, r == round)
		fmt.Fprintf(&sb, "%v|%v|%v|%v|%v|%v|%v|", sum, mx, all, sc, g, bc, any)

		out := map[int][]float64{}
		for d := 1; d <= 2 && d < p; d++ {
			out[(r+d)%p] = []float64{float64(r), float64(d), v}
		}
		in := SparseExchange(c, out, 700+round)
		srcs := make([]int, 0, len(in))
		for s := range in {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		for _, s := range srcs {
			fmt.Fprintf(&sb, "%d:%v;", s, in[s])
		}

		tr := alltoall(c, func() []int {
			o := make([]int, p)
			for i := range o {
				o[i] = r*p + i + round
			}
			return o
		}(), 800+round)
		fmt.Fprintf(&sb, "%v|", tr)

		if p > 1 {
			c.Send((r+1)%p, 42, [2]int{r, round})
			msg, src := c.Recv((r+p-1)%p, 42)
			fmt.Fprintf(&sb, "ring%v<%d|", msg, src)

			var reqs []*Request
			for d := 1; d < p; d++ {
				reqs = append(reqs, c.Isend((r+d)%p, 900, [2]int{r, round}))
				reqs = append(reqs, c.Irecv((r+p-d)%p, 900))
			}
			for i := 1; i < len(reqs); i += 2 {
				pay, src := reqs[i].Wait()
				fmt.Fprintf(&sb, "nb%v<%d|", pay, src)
			}
		}
		c.Barrier()
	}
	return sb.String()
}

// TestChaosBitwiseAgainstFaultFree is the tentpole acceptance test: with
// a seeded drop/duplicate/delay/reorder/stall plan installed, every
// collective, SparseExchange, blocking ring, and nonblocking exchange
// produces results bitwise-identical to the fault-free run, at several
// awkward world sizes.
func TestChaosBitwiseAgainstFaultFree(t *testing.T) {
	for _, p := range []int{2, 5, 8} {
		base := make([]string, p)
		Run(p, func(c *Comm) { base[c.Rank()] = chaosWorkload(c) })
		for seed := int64(1); seed <= 3; seed++ {
			got := make([]string, p)
			RunOpt(p, RunOptions{Plan: chaosPlan(seed)}, func(c *Comm) { got[c.Rank()] = chaosWorkload(c) })
			for r := 0; r < p; r++ {
				if got[r] != base[r] {
					t.Errorf("P=%d seed=%d rank %d: chaos result diverges from fault-free\nchaos: %.120s\nclean: %.120s",
						p, seed, r, got[r], base[r])
				}
			}
		}
	}
}

// TestChaosZeroProbabilityPlan pins that an installed-but-benign plan
// (the configuration the overhead benchmark uses) changes nothing and
// injects nothing.
func TestChaosZeroProbabilityPlan(t *testing.T) {
	const p = 5
	base := make([]string, p)
	Run(p, func(c *Comm) { base[c.Rank()] = chaosWorkload(c) })
	got := make([]string, p)
	var st FaultStats
	RunOpt(p, RunOptions{Plan: &FaultPlan{Seed: 1, CrashRank: -1}}, func(c *Comm) {
		got[c.Rank()] = chaosWorkload(c)
		if c.Rank() == 0 {
			st = c.FaultStats()
		}
	})
	for r := 0; r < p; r++ {
		if got[r] != base[r] {
			t.Errorf("rank %d: zero-probability plan changed results", r)
		}
	}
	if st != (FaultStats{}) {
		t.Errorf("zero-probability plan injected faults: %+v", st)
	}
}

// zeroWaits strips the blocked-time measurements (which legitimately grow
// under injected latency) so only the exactly-once message/byte counts
// are compared.
func zeroWaits(s Stats) Stats {
	s.RecvWait = 0
	m := make(map[int]TagStats, len(s.ByTag))
	for t, ts := range s.ByTag {
		cp := *ts
		cp.RecvWait = 0
		m[t] = cp
	}
	s.ByTag = nil
	return Stats{MsgsSent: s.MsgsSent, BytesSent: s.BytesSent,
		MsgsRecvd: s.MsgsRecvd, BytesRecvd: s.BytesRecvd,
		ByTag: tagPtrs(m)}
}

func tagPtrs(m map[int]TagStats) map[int]*TagStats {
	out := make(map[int]*TagStats, len(m))
	for t, ts := range m {
		cp := ts
		out[t] = &cp
	}
	return out
}

// TestChaosStatsAndMetrics checks that an aggressive plan actually
// injects every fault class, that the world's live registry records the
// fault counters, and that message statistics stay exactly-once: duplicates and
// retries must not inflate the per-rank send/receive accounting.
func TestChaosStatsAndMetrics(t *testing.T) {
	const p = 5
	clean := make([]Stats, p)
	Run(p, func(c *Comm) {
		chaosWorkload(c)
		clean[c.Rank()] = c.Stats()
	})

	plan := chaosPlan(99)
	plan.Stall = 0.2
	met := metrics.NewSharded(p)
	faulty := make([]Stats, p)
	var comm *Comm
	RunOpt(p, RunOptions{Plan: plan, Metrics: met}, func(c *Comm) {
		chaosWorkload(c)
		faulty[c.Rank()] = c.Stats()
		if c.Rank() == 0 {
			comm = c
		}
	})

	for r := 0; r < p; r++ {
		a, b := zeroWaits(clean[r]), zeroWaits(faulty[r])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("rank %d: message stats differ under faults (exactly-once accounting broken)\nclean:  %+v\nfaulty: %+v",
				r, a, b)
		}
	}

	st := comm.FaultStats()
	if st.Drops == 0 || st.Retries == 0 || st.Dups == 0 || st.Dedups == 0 ||
		st.Delays == 0 || st.Reorders == 0 || st.Stalls == 0 {
		t.Errorf("aggressive plan left a fault class uninjected: %+v", st)
	}
	if st.Dedups != st.Dups {
		t.Errorf("every duplicate must be deduped exactly once: dups=%d dedups=%d", st.Dups, st.Dedups)
	}
	for _, name := range []string{"fault_drops", "fault_retries", "fault_dups", "fault_dedups", "fault_delays", "fault_reorders", "fault_stalls"} {
		if met.Count(name) == 0 {
			t.Errorf("metrics counter %s not recorded", name)
		}
	}
}

// TestChaosScheduleDeterministic pins that the fault schedule is a pure
// function of the seed: two runs with the same plan inject the identical
// number of each fault, regardless of goroutine interleaving.
func TestChaosScheduleDeterministic(t *testing.T) {
	stats := func() FaultStats {
		var comm *Comm
		RunOpt(5, RunOptions{Plan: chaosPlan(7)}, func(c *Comm) {
			chaosWorkload(c)
			if c.Rank() == 0 {
				comm = c
			}
		})
		return comm.FaultStats()
	}
	a, b := stats(), stats()
	if a != b {
		t.Errorf("same seed produced different fault schedules: %+v vs %+v", a, b)
	}
}

// TestCrashAtStepSurfacesError injects a rank crash mid-run while the
// other ranks are deep in collectives and checks the run unwinds to a
// *CrashError instead of deadlocking.
func TestCrashAtStepSurfacesError(t *testing.T) {
	plan := chaosPlan(3)
	plan.CrashRank = 1
	plan.CrashStep = 3
	done := make(chan error, 1)
	go func() {
		done <- RunErrOpt(4, RunOptions{Plan: plan}, func(c *Comm) error {
			for step := 1; step <= 6; step++ {
				c.CrashPoint(step)
				AllreduceSum(c, int64(step))
				if c.Size() > 1 {
					c.Send((c.Rank()+1)%c.Size(), 5, step)
					c.Recv((c.Rank()+c.Size()-1)%c.Size(), 5)
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if !IsInjectedCrash(err) {
			t.Fatalf("want injected crash error, got %v", err)
		}
		var ce *CrashError
		errors.As(err, &ce)
		if ce.Rank != 1 || ce.Step != 3 {
			t.Fatalf("crash error reports rank %d step %d, want rank 1 step 3", ce.Rank, ce.Step)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("injected crash deadlocked the world")
	}
}

// TestRankPanicUnblocksBlockedPeers is the satellite bugfix pin: a rank
// that panics must propagate its panic to the Run caller even while peers
// sit blocked in Recv or Request.Wait — previously this deadlocked.
func TestRankPanicUnblocksBlockedPeers(t *testing.T) {
	for _, blocked := range []string{"recv", "wait"} {
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			Run(3, func(c *Comm) {
				if c.Rank() == 0 {
					// Give peers time to actually block.
					time.Sleep(5 * time.Millisecond)
					panic("boom")
				}
				if blocked == "recv" {
					c.Recv(0, 1) // never satisfied
				} else {
					c.Irecv(0, 1).Wait() // never satisfied
				}
			})
		}()
		select {
		case p := <-got:
			if p != "boom" {
				t.Fatalf("%s: want panic \"boom\" to propagate, got %v", blocked, p)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: rank panic deadlocked peers blocked in %s", blocked, blocked)
		}
	}
}

// TestBcastErr pins the collective error agreement helper used by the
// checkpoint writers: every rank returns the same outcome as rank 0.
func TestBcastErr(t *testing.T) {
	Run(4, func(c *Comm) {
		var mine error
		if c.Rank() == 0 {
			mine = errors.New("disk full")
		}
		err := BcastErr(c, mine)
		if err == nil || err.Error() != "disk full" {
			t.Errorf("rank %d: want rank 0's error, got %v", c.Rank(), err)
		}
		if ok := BcastErr(c, nil); ok != nil {
			t.Errorf("rank %d: want nil when rank 0 succeeded, got %v", c.Rank(), ok)
		}
	})
}

// TestAgreeErr pins the any-rank counterpart used by the checkpoint
// loaders: one failing rank makes every rank return an error (the failing
// rank its own), and all-nil stays nil.
func TestAgreeErr(t *testing.T) {
	for _, p := range []int{1, 3, 4} {
		Run(p, func(c *Comm) {
			var mine error
			if c.Rank() == p-1 {
				mine = errors.New("slice corrupt")
			}
			err := AgreeErr(c, mine)
			if err == nil || !strings.Contains(err.Error(), "slice corrupt") {
				t.Errorf("p=%d rank %d: want the failing rank's error, got %v", p, c.Rank(), err)
			}
			if c.Rank() == p-1 && err != mine {
				t.Errorf("p=%d: failing rank got %v, want its own error back", p, err)
			}
			if ok := AgreeErr(c, nil); ok != nil {
				t.Errorf("p=%d rank %d: want nil when every rank succeeded, got %v", p, c.Rank(), ok)
			}
		})
	}
}
