package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// unmarked returns a copy of the forest that knows nothing of its balance,
// so that its next Balance seeds every local leaf: the reference every
// incremental Balance below is compared with.
func (f *Forest) unmarked() *Forest {
	return &Forest{
		Conn: f.Conn, Comm: f.Comm,
		Local: slices.Clone(f.Local), gfp: slices.Clone(f.gfp),
		segLo: f.segLo, segHi: f.segHi,
		globalNum: f.globalNum, globalFirst: f.globalFirst,
	}
}

// sameLeaves fails the test unless the two forests hold the same leaves on
// every rank. Collective.
func sameLeaves(t *testing.T, what string, got, want *Forest) {
	t.Helper()
	if a, b := got.Checksum(), want.Checksum(); a != b {
		t.Errorf("%s: checksum %#x, want %#x", what, a, b)
	}
	if a, b := got.NumGlobal(), want.NumGlobal(); a != b {
		t.Errorf("%s: %d leaves, want %d", what, a, b)
	}
	if !slices.Equal(got.Local, want.Local) {
		t.Errorf("%s: rank %d holds different leaves", what, got.Comm.Rank())
	}
}

// pickMod hashes an octant and a salt into [0, n): the same marking on
// every rank and rank count.
func pickMod(o octant.Octant, salt, n uint64) uint64 {
	h := leafHash(o) ^ salt*0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h % n
}

// TestIncrementalBalanceMatchesFull pins the seeded Balance against the
// full pass: over random coarsen/refine(/partition) cycles on three
// connectivities, every rank count and every balance kind, a Balance that
// starts from the leaves changed since the last one yields the forest that
// a Balance of every leaf yields, and on the small cases the forest the
// preserved ripple protocol yields.
func TestIncrementalBalanceMatchesFull(t *testing.T) {
	conns := []struct {
		name  string
		conn  *connectivity.Conn
		level int8
	}{
		{"shell", connectivity.Shell(0.55, 1), 0},
		{"six", connectivity.SixRotCubes(), 1},
		{"cube", connectivity.UnitCube(), 1},
	}
	for _, cc := range conns {
		for _, p := range []int{1, 2, 3, 5} {
			for _, kind := range []BalanceKind{BalanceFace, BalanceFaceEdge, BalanceFull} {
				name := fmt.Sprintf("%s/P%d/kind%d", cc.name, p, kind)
				mpi.Run(p, func(c *mpi.Comm) {
					f := New(c, cc.conn, cc.level)
					f.Refine(true, cc.level+1, fractalRefine(cc.level+1))
					f.Balance(kind)
					f.Partition()
					for cycle := uint64(0); cycle < 8; cycle++ {
						salt := cycle*3 + uint64(kind)
						f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool {
							return pickMod(parent, salt, 3) == 0
						})
						f.Refine(false, 4, func(o octant.Octant) bool { return pickMod(o, salt, 16) == 1 })
						// Every third cycle moves the pending changes to
						// other ranks first, which must drop the mark.
						if cycle%3 == 2 {
							f.Partition()
							if f.balanced {
								t.Errorf("%s: Partition with pending changes kept the balance mark", name)
							}
						} else if !f.balanced {
							t.Errorf("%s cycle %d: balance mark lost without a Partition", name, cycle)
						}
						full := f.unmarked()
						var ripple *Forest
						if cc.name == "cube" && p <= 2 {
							ripple = f.unmarked()
							ripple.balanceRipple(kind)
						}
						f.Balance(kind)
						full.Balance(kind)
						validate(t, f)
						sameLeaves(t, fmt.Sprintf("%s cycle %d", name, cycle), f, full)
						if ripple != nil {
							sameLeaves(t, fmt.Sprintf("%s cycle %d vs ripple", name, cycle), f, ripple)
						}
						if cycle%2 == 1 {
							f.Partition()
						}
					}
				})
			}
		}
	}
}

// TestIncrementalBalanceFinerNeighbour holds the cases that seeding the
// changed leaves alone gets wrong: a family is coarsened beside a leaf two
// levels finer that did not change, so the violated demand is made by an
// unchanged leaf. Level-3 leaves sit at chosen places of tree 0; Balance
// refines the level-1 leaves around them; coarsening those families back
// and balancing again must restore them — on the same rank and tree, across
// the rotated tree faces of SixRotCubes, and across a rank boundary.
func TestIncrementalBalanceFinerNeighbour(t *testing.T) {
	root := octant.Root(0)
	// The centre of the unit cube: touches all seven other level-1 leaves
	// of the same tree.
	centre := []octant.Octant{root.Child(0).Child(7).Child(7)}
	// The eight corners of tree 0: touch whatever trees meet it there.
	var corners []octant.Octant
	for i := 0; i < octant.NumChildren; i++ {
		corners = append(corners, root.Child(i).Child(i).Child(i))
	}
	cases := []struct {
		name  string
		conn  *connectivity.Conn
		ranks int
		deep  []octant.Octant
	}{
		{"same rank and tree", connectivity.UnitCube(), 1, centre},
		{"rotated tree face", connectivity.SixRotCubes(), 1, corners},
		{"rank boundary", connectivity.SixRotCubes(), 3, corners},
		{"rank boundary in a tree", connectivity.UnitCube(), 2, centre},
	}
	for _, tc := range cases {
		mpi.Run(tc.ranks, func(c *mpi.Comm) {
			f := New(c, tc.conn, 1)
			onPath := func(o octant.Octant) bool {
				for _, d := range tc.deep {
					if o.Contains(d) {
						return true
					}
				}
				return false
			}
			f.Refine(true, 3, onPath)
			refined := f.NumGlobal()
			f.Balance(BalanceFull)
			want, balanced := f.Checksum(), f.NumGlobal()
			if balanced == refined {
				t.Fatalf("%s: the first Balance had nothing to do", tc.name)
			}
			// Undo what Balance did wherever a whole family is on one rank.
			f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool {
				return parent.Level == 1 && !onPath(parent)
			})
			if f.NumGlobal() == balanced {
				t.Fatalf("%s: nothing was coarsened", tc.name)
			}
			if !f.balanced || mpi.AllreduceSum(c, int64(len(f.changed))) == 0 {
				t.Fatalf("%s: Coarsen did not record its parents", tc.name)
			}
			f.Balance(BalanceFull)
			validate(t, f)
			if got := f.Checksum(); got != want || f.NumGlobal() != balanced {
				t.Errorf("%s: re-balance gave %d leaves (checksum %#x), want %d (%#x)",
					tc.name, f.NumGlobal(), got, balanced, want)
			}
		})
	}
}

// TestBalanceAfterPartitionWithPendingChanges: leaves refined on one rank
// and then shipped to another are unknown there, so Partition must drop the
// mark and the Balance after it must seed every leaf.
func TestBalanceAfterPartitionWithPendingChanges(t *testing.T) {
	mpi.Run(3, func(c *mpi.Comm) {
		f := New(c, connectivity.SixRotCubes(), 1)
		f.Balance(BalanceFull)
		f.Partition()
		if !f.balanced {
			t.Fatal("Partition of a balanced forest with nothing pending dropped the mark")
		}
		// Deep refinement on the last rank only, then an equal-count
		// partition that ships most of it away.
		f.Refine(true, 4, func(o octant.Octant) bool { return o.Tree == 5 && o.ChildID() == 7 })
		f.Partition()
		if f.balanced {
			t.Fatal("Partition with pending changes kept the mark")
		}
		full := f.unmarked()
		f.Balance(BalanceFull)
		full.Balance(BalanceFull)
		validate(t, f)
		sameLeaves(t, "refine, partition, balance", f, full)
	})
}
