package mangll

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// TestLinkPartition checks that the element classes follow the overlap
// criterion (an element is a boundary element iff one of its links reads
// ghost data) and that intLinks/bndLinks hold exactly the links of the
// interior and of the boundary elements, each ascending.
func TestLinkPartition(t *testing.T) {
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			_, m := buildMesh(c, conn, 1, 3, 2)
			readsGhost := make([]bool, m.NumLocal)
			for li := range m.Links {
				if l := &m.Links[li]; l.Kind != LinkBoundary && l.NbrGhost {
					readsGhost[l.Elem] = true
				}
			}
			elems := make([]int, m.NumLocal)
			for _, e := range m.InteriorElems {
				elems[e]++
				if readsGhost[e] {
					t.Errorf("p=%d: element %d with a ghost-reading link in interior set", p, e)
				}
			}
			for _, e := range m.BoundaryElems {
				elems[e]++
				if !readsGhost[e] {
					t.Errorf("p=%d: element %d without ghost-reading link in boundary set", p, e)
				}
			}
			for e, n := range elems {
				if n != 1 {
					t.Fatalf("p=%d: element %d covered %d times", p, e, n)
				}
			}

			seen := make([]int, len(m.Links))
			for _, list := range [][]int32{m.intLinks, m.bndLinks} {
				for k, li := range list {
					seen[li]++
					if k > 0 && li <= list[k-1] {
						t.Fatalf("p=%d: link list not ascending at %d", p, k)
					}
				}
			}
			for li, n := range seen {
				if n != 1 {
					t.Fatalf("p=%d: link %d covered %d times", p, li, n)
				}
			}
			for _, li := range m.intLinks {
				if readsGhost[m.Links[li].Elem] {
					t.Errorf("p=%d: link %d of a boundary element in interior list", p, li)
				}
			}
			for _, li := range m.bndLinks {
				if !readsGhost[m.Links[li].Elem] {
					t.Errorf("p=%d: link %d of an interior element in boundary list", p, li)
				}
			}
			if p == 1 && len(m.bndLinks) > 0 {
				t.Fatalf("serial mesh has %d boundary-element links", len(m.bndLinks))
			}
		})
	}
}

// TestGhostExchangeMessageCounts pins the communication of the split-phase
// exchange: exactly one message per directed neighbor pair, all on
// TagGhostField, and no discovery traffic on any other tag.
func TestGhostExchangeMessageCounts(t *testing.T) {
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	mpi.Run(4, func(c *mpi.Comm) {
		_, m := buildMesh(c, conn, 1, 3, 2)
		field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
		m.ExchangeGhost(1, field) // warm up (first exchange may grow queues)

		c.ResetStats()
		m.ExchangeGhost(1, field)
		st := c.Stats()

		wantSent := int64(len(m.sendPeers))
		wantRecvd := int64(len(m.recvPeers))
		if st.MsgsSent != wantSent || st.MsgsRecvd != wantRecvd {
			t.Errorf("rank %d: %d msgs sent, %d recvd; want %d, %d",
				c.Rank(), st.MsgsSent, st.MsgsRecvd, wantSent, wantRecvd)
		}
		for tag, ts := range st.ByTag {
			if tag != TagGhostField && (ts.MsgsSent != 0 || ts.MsgsRecvd != 0) {
				t.Errorf("rank %d: exchange touched tag %s (%d sent, %d recvd)",
					c.Rank(), mpi.TagName(tag), ts.MsgsSent, ts.MsgsRecvd)
			}
		}
		// A 4-rank brick decomposition must actually communicate.
		total := mpi.AllreduceSumFloat(c, float64(st.MsgsSent))
		if total == 0 {
			t.Fatal("4-rank exchange sent no messages")
		}
	})
}

// TestGhostExchangeSplitPhaseMatchesBlocking checks that an exchange with
// compute between Start and Finish fills the ghost slots bitwise identically
// to the blocking composition.
func TestGhostExchangeSplitPhaseMatchesBlocking(t *testing.T) {
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	mpi.Run(4, func(c *mpi.Comm) {
		_, m := buildMesh(c, conn, 1, 3, 2)
		n := (m.NumLocal + m.NumGhost) * m.Np
		f1 := make([]float64, n)
		f2 := make([]float64, n)
		for i := 0; i < m.NumLocal*m.Np; i++ {
			v := math.Sin(float64(i)*0.7) + float64(c.Rank())
			f1[i], f2[i] = v, v
		}
		m.ExchangeGhost(1, f1)
		ex := m.StartGhostExchange(1, f2)
		var burn float64 // interleaved local compute while messages fly
		for i := 0; i < m.NumLocal*m.Np; i++ {
			burn += f2[i] * f2[i]
		}
		ex.Finish()
		_ = burn
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("rank %d: split-phase ghost differs at %d: %v vs %v",
					c.Rank(), i, f2[i], f1[i])
			}
		}
	})
}

// TestGhostExchangeDoubleStartPanics checks the one-outstanding-exchange
// guard.
func TestGhostExchangeDoubleStartPanics(t *testing.T) {
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	mpi.Run(2, func(c *mpi.Comm) {
		_, m := buildMesh(c, conn, 1, 1, 2)
		field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
		ex := m.StartGhostExchange(1, field)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("second StartGhostExchange did not panic")
				}
			}()
			m.StartGhostExchange(1, field)
		}()
		ex.Finish() // drain so both ranks exit cleanly
	})
}

// TestGhostExchangeAllocsSerial pins the steady-state allocation count of a
// serial exchange at exactly zero: with no peers the whole split-phase path
// must run without touching the heap.
func TestGhostExchangeAllocsSerial(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	mpi.Run(1, func(c *mpi.Comm) {
		_, m := buildMesh(c, conn, 1, 3, 2)
		field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
		m.ExchangeGhost(1, field)
		allocs := testing.AllocsPerRun(50, func() {
			m.ExchangeGhost(1, field)
		})
		if allocs != 0 {
			t.Fatalf("serial ExchangeGhost allocates %v times per call, want 0", allocs)
		}
	})
}

// TestGhostExchangeAllocsParallel bounds the steady-state allocations of
// the parallel exchange. The only per-exchange heap traffic left is the
// Request handle per posted send and receive; staging buffers, their boxed
// forms, peer lists, and queue backing arrays are all reused. The bound is
// deliberately loose (runtime background allocations from four concurrent
// rank goroutines land in the same global counter) but far below the old
// per-call cost of fresh per-peer buffers plus sparse discovery rounds.
func TestGhostExchangeAllocsParallel(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	mpi.Run(4, func(c *mpi.Comm) {
		_, m := buildMesh(c, conn, 1, 3, 2)
		field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
		const warm, rounds = 8, 200
		for i := 0; i < warm; i++ {
			m.ExchangeGhost(1, field)
		}
		reqs := mpi.AllreduceSumFloat(c, float64(len(m.sendPeers)+len(m.recvPeers)))

		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < rounds; i++ {
			m.ExchangeGhost(1, field)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perRound := float64(m1.Mallocs-m0.Mallocs) / rounds
			if bound := reqs + 32; perRound > bound {
				t.Fatalf("parallel ExchangeGhost allocates %.1f times per round across all ranks, want <= %.0f", perRound, bound)
			}
		}
	})
}

// chaosGhostRun builds the mesh, then performs three rounds of split-phase
// ghost exchange with the received ghost values folded back into the local
// field between rounds, so any mis-sequenced delivery compounds into a
// bitwise difference. Returns the final field.
func chaosGhostRun(c *mpi.Comm, conn *connectivity.Conn) []float64 {
	_, m := buildMesh(c, conn, 1, 3, 2)
	n := (m.NumLocal + m.NumGhost) * m.Np
	f := make([]float64, n)
	for i := 0; i < m.NumLocal*m.Np; i++ {
		f[i] = math.Sin(float64(i)*0.7) + float64(c.Rank())*1.3
	}
	for round := 0; round < 3; round++ {
		ex := m.StartGhostExchange(1, f)
		var burn float64 // interleaved local compute while messages fly
		for i := 0; i < m.NumLocal*m.Np; i++ {
			burn += f[i] * f[i]
		}
		ex.Finish()
		_ = burn
		for i := 0; i < m.NumLocal*m.Np; i++ {
			f[i] += 0.5 * f[m.NumLocal*m.Np+(i%max(1, m.NumGhost*m.Np))]
		}
	}
	return f
}

// TestGhostExchangeChaosBitwise runs the split-phase exchange under a
// seeded drop/duplicate/delay/reorder fault plan and checks the ghost
// layers stay bitwise-identical to the fault-free run at several world
// sizes.
func TestGhostExchangeChaosBitwise(t *testing.T) {
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	plan := &mpi.FaultPlan{
		Seed: 11, Drop: 0.25, Dup: 0.25, Delay: 0.25, Reorder: 0.25,
		MaxDelay: 200 * time.Microsecond, RetryTimeout: 100 * time.Microsecond,
		CrashRank: -1,
	}
	for _, p := range []int{2, 5, 8} {
		base := make([][]float64, p)
		mpi.Run(p, func(c *mpi.Comm) { base[c.Rank()] = chaosGhostRun(c, conn) })
		got := make([][]float64, p)
		mpi.RunOpt(p, mpi.RunOptions{Plan: plan}, func(c *mpi.Comm) { got[c.Rank()] = chaosGhostRun(c, conn) })
		for r := 0; r < p; r++ {
			if len(base[r]) != len(got[r]) {
				t.Fatalf("P=%d rank %d: field length changed under faults", p, r)
			}
			for i := range base[r] {
				if base[r][i] != got[r][i] {
					t.Fatalf("P=%d rank %d: ghost field diverges under faults at %d: %v vs %v",
						p, r, i, got[r][i], base[r][i])
				}
			}
		}
	}
}
