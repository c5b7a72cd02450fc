package core

import (
	"sort"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// fig4Forest builds the Figure-4 fractal workload the recursive-algorithm
// pins run on: six rotated cubes, uniform level, fractal refinement four
// levels deeper, partitioned.
func fig4Forest(c *mpi.Comm, level int8) *Forest {
	f := New(c, connectivity.SixRotCubes(), level)
	f.Refine(true, level+4, fractalRefine(level+4))
	f.Partition()
	return f
}

// TestBalanceMatchesRippleReference pins the tentpole equivalence claim:
// the recursive two-phase Balance produces a forest bitwise identical
// (same Checksum) to the old iterative ripple protocol, preserved
// verbatim in balance_reference_test.go, on every balance kind and rank
// count. Both compute the unique minimal 2:1-balanced refinement.
func TestBalanceMatchesRippleReference(t *testing.T) {
	kinds := []BalanceKind{BalanceFace, BalanceFaceEdge, BalanceFull}
	for _, p := range testRanks {
		mpi.Run(p, func(c *mpi.Comm) {
			for _, kind := range kinds {
				rec := fig4Forest(c, 1)
				rip := fig4Forest(c, 1)
				rec.Balance(kind)
				rip.balanceRipple(kind)
				validate(t, rec)
				if a, b := rec.Checksum(), rip.Checksum(); a != b {
					t.Errorf("P=%d kind=%d: recursive checksum %#x != ripple %#x", p, kind, a, b)
				}
				if a, b := rec.NumGlobal(), rip.NumGlobal(); a != b {
					t.Errorf("P=%d kind=%d: recursive %d leaves != ripple %d", p, kind, a, b)
				}
			}
		})
	}

	// A cross-tree ripple stressor: one max-depth octant forces a cascade
	// through every tree of the macro-structure.
	for _, p := range []int{1, 3, 8} {
		mpi.Run(p, func(c *mpi.Comm) {
			deep := func(f *Forest) {
				f.Refine(true, 6, func(o octant.Octant) bool {
					return o.Tree == 0 && o.X == 0 && o.Y == 0 && o.Z == 0 && o.Level < 6
				})
			}
			rec := New(c, connectivity.SixRotCubes(), 1)
			deep(rec)
			rip := New(c, connectivity.SixRotCubes(), 1)
			deep(rip)
			rec.Balance(BalanceFull)
			rip.balanceRipple(BalanceFull)
			validate(t, rec)
			if a, b := rec.Checksum(), rip.Checksum(); a != b {
				t.Errorf("P=%d deep-octant: recursive checksum %#x != ripple %#x", p, a, b)
			}
		})
	}

	// Balance derives its targets from the neighbourhoods of sibling
	// families' parents and skips those inside the grandparent. The shell
	// brings its own rotated inter-tree connections; a fully periodic brick
	// has trees that neighbour themselves, so a cross-tree image can land
	// inside the very grandparent it is tested against.
	conns := []struct {
		name string
		conn *connectivity.Conn
	}{
		{"shell", connectivity.Shell(0.55, 1)},
		{"periodic brick", connectivity.Brick(2, 1, 1, true, true, true)},
	}
	for _, cc := range conns {
		for _, p := range []int{1, 3} {
			mpi.Run(p, func(c *mpi.Comm) {
				for _, kind := range kinds {
					build := func() *Forest {
						f := New(c, cc.conn, 1)
						f.Refine(true, 4, fractalRefine(4))
						f.Partition()
						return f
					}
					rec, rip := build(), build()
					rec.Balance(kind)
					rip.balanceRipple(kind)
					validate(t, rec)
					if a, b := rec.Checksum(), rip.Checksum(); a != b || rec.NumGlobal() != rip.NumGlobal() {
						t.Errorf("%s P=%d kind=%d: recursive %d leaves (%#x), ripple %d (%#x)",
							cc.name, p, kind, rec.NumGlobal(), a, rip.NumGlobal(), b)
					}
				}
			})
		}
	}
}

// TestBalanceExchangeRoundsBounded pins the bounded-round claim: on the
// Fig-4 fractal workload the recursive Balance needs at most 2 inter-rank
// demand exchanges (the old ripple's round count was unbounded in
// principle and its fixpoint detection always cost one extra global
// no-change round).
func TestBalanceExchangeRoundsBounded(t *testing.T) {
	for _, p := range []int{4, 8} {
		mpi.Run(p, func(c *mpi.Comm) {
			f := fig4Forest(c, 1)
			f.Balance(BalanceFull)
			if f.BalanceRounds > 2 {
				t.Errorf("P=%d: %d exchange rounds, want <= 2", p, f.BalanceRounds)
			}
		})
	}
	// Serial runs need no exchange at all.
	mpi.Run(1, func(c *mpi.Comm) {
		f := fig4Forest(c, 1)
		f.Balance(BalanceFull)
		if f.BalanceRounds != 0 {
			t.Errorf("P=1: %d exchange rounds, want 0", f.BalanceRounds)
		}
	})
}

// commPin is one expected per-phase communication volume: exact message
// and payload-byte counts summed over all ranks.
type commPin struct {
	msgs, bytes int64
}

// TestBalanceGhostCommPinned pins the exact message and byte counts of the
// Balance demand exchange and the Ghost shipment on the Fig-4 fractal
// workload at fixed rank counts, the way the SparseExchange counts are
// pinned in internal/mpi: a regression that reintroduces all-mesh routing or
// per-leaf re-sends changes these totals and fails structurally, without
// any wall-clock flakiness. The counts are transport-independent.
func TestBalanceGhostCommPinned(t *testing.T) {
	want := map[int]map[string]commPin{
		4: {"balance": {19, 104020}, "ghost": {12, 50733}},
		8: {"balance": {79, 200146}, "ghost": {50, 100080}},
	}
	for _, p := range []int{4, 8} {
		mpi.Run(p, func(c *mpi.Comm) {
			f := fig4Forest(c, 1)
			c.ResetStats()
			f.Balance(BalanceFull)
			bal := c.TagStat(TagBalance)
			g := f.Ghost()
			gh := c.TagStat(TagGhost)
			_ = g
			got := map[string]commPin{
				"balance": {mpi.AllreduceSum(c, bal.MsgsSent), mpi.AllreduceSum(c, bal.BytesSent)},
				"ghost":   {mpi.AllreduceSum(c, gh.MsgsSent), mpi.AllreduceSum(c, gh.BytesSent)},
			}
			if c.Rank() == 0 {
				for phase, w := range want[p] {
					if got[phase] != w {
						t.Errorf("P=%d %s: got %d msgs / %d bytes, want %d / %d",
							p, phase, got[phase].msgs, got[phase].bytes, w.msgs, w.bytes)
					}
				}
			}
		})
	}
}

// TestMetaBytesPinnedUnderChurn pins the O(bytes) shared-metadata claim:
// the resident globally shared state is exactly the P+1 curve markers plus
// two scalars, and no amount of mesh churn — refine, balance, coarsen,
// partition — grows it. (The old syncMeta kept an O(P) count array
// refreshed by Allgather on every operation; worse, anything caching
// per-leaf global state would scale with N.)
func TestMetaBytesPinnedUnderChurn(t *testing.T) {
	const p = 6
	mpi.Run(p, func(c *mpi.Comm) {
		conn := connectivity.Brick(2, 1, 1, false, false, false)
		f := New(c, conn, 1)
		want := int64(p+1)*16 + 16 // markers + globalNum/globalFirst
		if got := f.MetaBytes(); got != want {
			t.Fatalf("MetaBytes after New = %d, want %d", got, want)
		}
		for i := 0; i < 3; i++ {
			f.Refine(true, 4, fractalRefine(4))
			f.Balance(BalanceFull)
			f.Partition()
			f.Coarsen(false, func(octant.Octant, []octant.Octant) bool { return true })
			if got := f.MetaBytes(); got != want {
				t.Fatalf("MetaBytes after churn %d = %d, want %d (metadata scaling with mesh churn)", i, got, want)
			}
		}
		validate(t, f)
	})
}

// TestBoundaryTraversalMatchesBruteForce checks the recursive boundary
// traversal against the definition it optimizes: it must visit exactly
// once, in ascending order, every local leaf with at least one remote rank
// in its same-size neighbourhood, and may only skip leaves whose
// neighbourhood is fully local.
func TestBoundaryTraversalMatchesBruteForce(t *testing.T) {
	for _, p := range testRanks {
		mpi.Run(p, func(c *mpi.Comm) {
			f := fig4Forest(c, 1)
			f.Balance(BalanceFull)

			visited := make(map[int]bool)
			last := -1
			f.forEachBoundaryLeaf(func(i int, o octant.Octant) {
				if o != f.Local[i] {
					t.Errorf("P=%d: visit index %d mismatches leaf", p, i)
				}
				if i <= last {
					t.Errorf("P=%d: visit order not ascending: %d after %d", p, i, last)
				}
				if visited[i] {
					t.Errorf("P=%d: leaf %d visited twice", p, i)
				}
				visited[i] = true
				last = i
			})

			me := c.Rank()
			for i, o := range f.Local {
				remote := false
				for _, n := range f.Conn.AppendNeighbors(nil, o, connectivity.FacesEdgesCorners) {
					lo, hi := f.OwnersOfRange(n)
					if lo != me || hi != me {
						remote = true
						break
					}
				}
				if remote && !visited[i] {
					t.Errorf("P=%d: boundary leaf %d (%v) not visited", p, i, o)
				}
			}
		})
	}
}

// TestSegmentTestsMatchMarkers checks the key-free segment tests against
// their definition on the shared markers: overlapsLocal, ownedHereOnly and
// OwnersOfRange answer for every octant of every level as the Morton-key
// comparisons with gfp do, including on ranks left empty.
func TestSegmentTestsMatchMarkers(t *testing.T) {
	for _, p := range []int{1, 3, 8, 40} {
		mpi.Run(p, func(c *mpi.Comm) {
			// Six roots leave ranks empty at P = 8 and 40.
			for _, f := range []*Forest{fig4Forest(c, 1), New(c, connectivity.SixRotCubes(), 0)} {
				f.segmentTestsMatchMarkers(t)
			}
		})
	}
}

// segmentTestsMatchMarkers reports the first probe on which the calling
// rank's segment tests and the markers disagree. It returns early without
// a collective, so the other ranks go on.
func (f *Forest) segmentTestsMatchMarkers(t *testing.T) {
	t.Helper()
	p, me := f.Comm.Size(), f.Comm.Rank()
	lo, hi := f.gfp[me], f.gfp[me+1]
	var probes []octant.Octant
	for _, o := range f.gatherAll() {
		for l := int8(0); l <= o.Level; l++ {
			probes = append(probes, o.AncestorAt(l))
		}
	}
	for _, o := range probes {
		start, end := markerOf(o), markerEnd(o)
		if got, want := f.overlapsLocal(o), start.Less(hi) && lo.Less(end); got != want {
			t.Errorf("P=%d rank %d: overlapsLocal(%v) = %v, markers say %v", p, me, o, got, want)
			return
		}
		if got, want := f.ownedHereOnly(o), !start.Less(lo) && !hi.Less(end); got != want {
			t.Errorf("P=%d rank %d: ownedHereOnly(%v) = %v, markers say %v", p, me, o, got, want)
			return
		}
		r0, r1 := f.OwnersOfRange(o)
		want0 := f.OwnerOfPosition(start)
		want1 := sort.Search(p+1, func(i int) bool { return !f.gfp[i].Less(end) }) - 1
		want1 = max(min(want1, p-1), want0)
		if r0 != want0 || r1 != want1 {
			t.Errorf("P=%d rank %d: OwnersOfRange(%v) = %d..%d, markers say %d..%d", p, me, o, r0, r1, want0, want1)
			return
		}
	}
}

// TestForestMetricsRecorded pins the live-instrument wiring: a run with a
// metrics registry attached records the balance exchange-round counter,
// the ghost message counter, and the resident-metadata gauge (exported
// with the amr_ prefix and folded into the run manifest by telemetry).
func TestForestMetricsRecorded(t *testing.T) {
	const p = 4
	reg := metrics.NewSharded(p)
	var rounds int64
	mpi.RunOpt(p, mpi.RunOptions{Metrics: reg}, func(c *mpi.Comm) {
		f := fig4Forest(c, 1)
		f.Balance(BalanceFull)
		f.Ghost()
		if c.Rank() == 0 {
			rounds = int64(f.BalanceRounds)
		}
	})
	if got := reg.Counter("balance_rounds").Value(); got != rounds*p {
		t.Errorf("balance_rounds = %d, want %d (rounds %d on each of %d ranks)", got, rounds*p, rounds, p)
	}
	if got := reg.Counter("ghost_msgs").Value(); got <= 0 {
		t.Errorf("ghost_msgs = %d, want > 0", got)
	}
	want := int64(p+1)*16 + 16
	if got := reg.Gauge("forest_meta_bytes").Max(); got != want {
		t.Errorf("forest_meta_bytes = %d, want %d", got, want)
	}
}
