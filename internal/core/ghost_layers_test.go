package core

import (
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// ringReference computes the expected k-ring ghost set by brute force.
// Ring 1 matches Ghost (a remote leaf joins if its own neighbourhood
// overlaps a local leaf); ring k >= 2 adds the remote leaves overlapping
// the neighbourhood regions of ring k-1, the geometric front expansion
// GhostLayers documents.
func ringReference(f *Forest, all []octant.Octant, layers int) map[octant.Octant]bool {
	me := f.Comm.Rank()
	have := map[octant.Octant]bool{}
	var front []octant.Octant
	for _, q := range all {
		if f.OwnerOf(q) == me || have[q] {
			continue
		}
		for _, n := range f.Conn.AppendNeighbors(nil, q, connectivity.FacesEdgesCorners) {
			lo, hi := octant.SearchOverlapRange(f.Local, n)
			if lo < hi {
				have[q] = true
				front = append(front, q)
				break
			}
		}
	}
	octant.Sort(front)
	for ring := 1; ring < layers; ring++ {
		var regions []octant.Octant
		for _, o := range front {
			regions = append(regions, f.Conn.AppendNeighbors(nil, o, connectivity.FacesEdgesCorners)...)
		}
		var next []octant.Octant
		for _, q := range all {
			if f.OwnerOf(q) == me || have[q] {
				continue
			}
			for _, n := range regions {
				if q.Tree == n.Tree && q.Overlaps(n) {
					have[q] = true
					next = append(next, q)
					break
				}
			}
		}
		octant.Sort(next)
		front = next
	}
	return have
}

func TestGhostLayersTwoRings(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn *connectivity.Conn
	}{
		{"brick", connectivity.Brick(2, 2, 1, false, false, false)},
		{"shell", connectivity.Shell(0.55, 1.0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mpi.Run(5, func(c *mpi.Comm) {
				f := New(c, tc.conn, 1)
				f.Refine(true, 3, fractalRefine(3))
				f.Balance(BalanceFull)
				f.Partition()
				g2 := f.GhostLayers(2)
				all := f.GatherAll()
				// Run every collective before any assertion: a t.Fatalf
				// inside a rank goroutine would otherwise strand the other
				// ranks in the collective.
				type pair struct {
					O octant.Octant
					R int
				}
				var mine []pair
				for k, li := range g2.Mirrors {
					for _, r := range g2.MirrorRanks[k] {
						mine = append(mine, pair{f.Local[li], r})
					}
				}
				allPairs := mpi.Allgather(c, mine)

				want := ringReference(f, all, 2)
				got := map[octant.Octant]bool{}
				for i, q := range g2.Octants {
					got[q] = true
					if f.OwnerOf(q) != g2.Owner[i] {
						t.Fatalf("wrong owner for %v", q)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("rank %d: 2-ring ghost size %d, want %d", c.Rank(), len(got), len(want))
				}
				for q := range want {
					if !got[q] {
						t.Fatalf("missing 2-ring ghost %v", q)
					}
				}
				if !octant.IsSorted(g2.Octants) {
					t.Fatal("2-ring ghosts not sorted")
				}
				// Mirror reciprocity: every ghost is mirrored to us.
				mirrored := map[octant.Octant]map[int]bool{}
				for _, ps := range allPairs {
					for _, pr := range ps {
						if mirrored[pr.O] == nil {
							mirrored[pr.O] = map[int]bool{}
						}
						mirrored[pr.O][pr.R] = true
					}
				}
				for _, q := range g2.Octants {
					if !mirrored[q][c.Rank()] {
						t.Fatalf("2-ring ghost %v not mirrored to rank %d", q, c.Rank())
					}
				}
			})
		})
	}
}

func TestGhostLayersOneEqualsGhost(t *testing.T) {
	conn := connectivity.SixRotCubes()
	mpi.Run(3, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, 3, fractalRefine(3))
		f.Balance(BalanceFull)
		f.Partition()
		g1 := f.Ghost()
		gl := f.GhostLayers(1)
		if len(g1.Octants) != len(gl.Octants) {
			t.Fatalf("layer-1 mismatch: %d vs %d", len(g1.Octants), len(gl.Octants))
		}
		for i := range g1.Octants {
			if g1.Octants[i] != gl.Octants[i] {
				t.Fatalf("layer-1 octant mismatch at %d", i)
			}
		}
	})
}
