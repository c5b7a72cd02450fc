package core

import (
	"math/rand"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

var testRanks = []int{1, 2, 5, 8}

// fractalRefine marks octants for the paper's Figure 4 workload:
// "recursively subdividing octants with child identifiers 0, 3, 5 and 6".
func fractalRefine(maxLevel int8) func(octant.Octant) bool {
	return func(o octant.Octant) bool {
		if o.Level >= maxLevel {
			return false
		}
		switch o.ChildID() {
		case 0, 3, 5, 6:
			return true
		}
		return false
	}
}

// gatherAll returns the full global leaf array on every rank, in curve
// order: an oracle for small forests only, since it replicates O(global N)
// leaves on every rank.
func (f *Forest) gatherAll() []octant.Octant {
	var out []octant.Octant
	for _, part := range mpi.Allgather(f.Comm, f.Local) {
		out = append(out, part...)
	}
	return out
}

func validate(t *testing.T, f *Forest) {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatalf("rank %d: %v", f.Comm.Rank(), err)
	}
}

func TestNewUniform(t *testing.T) {
	conn := connectivity.Brick(2, 1, 1, false, false, false)
	for _, p := range testRanks {
		mpi.Run(p, func(c *mpi.Comm) {
			f := New(c, conn, 2)
			validate(t, f)
			if f.NumGlobal() != 2*64 {
				t.Errorf("global = %d, want 128", f.NumGlobal())
			}
			// Equal counts +-1.
			n := f.NumLocal()
			if int64(n) < f.NumGlobal()/int64(p) || int64(n) > f.NumGlobal()/int64(p)+1 {
				t.Errorf("rank %d holds %d of %d on %d ranks", c.Rank(), n, f.NumGlobal(), p)
			}
		})
	}
}

func TestNewLevelZeroEmptyRanks(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(4, func(c *mpi.Comm) {
		f := New(c, conn, 0)
		validate(t, f)
		if f.NumGlobal() != 1 {
			t.Errorf("global = %d", f.NumGlobal())
		}
		counts := mpi.Allgather(f.Comm, int64(len(f.Local)))
		total := 0
		for _, n := range counts {
			total += int(n)
		}
		if total != 1 {
			t.Errorf("counts = %v", counts)
		}
	})
}

func TestRefineCoarsenRoundTrip(t *testing.T) {
	conn := connectivity.SixRotCubes()
	for _, p := range testRanks {
		mpi.Run(p, func(c *mpi.Comm) {
			f := New(c, conn, 1)
			before := f.Checksum()
			f.Refine(false, octant.MaxLevel, func(octant.Octant) bool { return true })
			validate(t, f)
			if f.NumGlobal() != 6*64 {
				t.Errorf("after refine: %d", f.NumGlobal())
			}
			f.Coarsen(false, func(parent octant.Octant, kids []octant.Octant) bool { return true })
			validate(t, f)
			if f.Checksum() != before {
				t.Errorf("coarsen did not undo refine")
			}
		})
	}
}

func TestRefineRecursive(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(2, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, 4, fractalRefine(4))
		validate(t, f)
		// The fractal pattern subdivides 4 of 8 children at each level:
		// count(l+1) = count(l) - marked + 8*marked. Starting from 8 octants
		// at level 1 (4 marked): levels fill deterministically; just check
		// P-independence via checksum against serial.
		sum := f.Checksum()
		var serial uint64
		mpiSerial := func() {
			mpi.Run(1, func(c1 *mpi.Comm) {
				f1 := New(c1, conn, 1)
				f1.Refine(true, 4, fractalRefine(4))
				serial = f1.Checksum()
			})
		}
		if c.Rank() == 0 {
			mpiSerial()
			if sum != serial {
				t.Errorf("parallel refine differs from serial")
			}
		}
	})
}

func TestCoarsenPartialFamilyUntouched(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		// Refine only child 3: coarsening everything must restore level 1
		// for that family but cannot go below level 1 roots in one pass.
		f.Refine(false, 5, func(o octant.Octant) bool { return o.ChildID() == 3 })
		n := f.NumGlobal()
		if n != 7+8 {
			t.Fatalf("after refine: %d", n)
		}
		f.Coarsen(false, func(parent octant.Octant, kids []octant.Octant) bool {
			return parent.Level >= 1 // only undo the second-level split
		})
		validate(t, f)
		if f.NumGlobal() != 8 {
			t.Errorf("after coarsen: %d", f.NumGlobal())
		}
	})
}

func TestPartitionEqualCounts(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	for _, p := range testRanks {
		mpi.Run(p, func(c *mpi.Comm) {
			f := New(c, conn, 1)
			// Unbalanced load: refine only tree 0's octants.
			f.Refine(true, 3, func(o octant.Octant) bool { return o.Tree == 0 && o.Level < 3 })
			before := f.Checksum()
			f.Partition()
			validate(t, f)
			if f.Checksum() != before {
				t.Errorf("partition changed leaves")
			}
			diff := int64(f.NumLocal()) - f.NumGlobal()/int64(p)
			if diff < 0 || diff > 1 {
				t.Errorf("rank %d: %d leaves of %d (p=%d)", c.Rank(), f.NumLocal(), f.NumGlobal(), p)
			}
		})
	}
}

func TestPartitionWeighted(t *testing.T) {
	conn := connectivity.Brick(2, 2, 2, false, false, false)
	mpi.Run(4, func(c *mpi.Comm) {
		f := New(c, conn, 2)
		// Octants in tree 0 cost 10x.
		w := make([]float64, f.NumLocal())
		var local float64
		for i, o := range f.Local {
			w[i] = 1
			if o.Tree == 0 {
				w[i] = 10
			}
			local += w[i]
		}
		total := mpi.AllreduceSumFloat(c, local)
		f.PartitionWeighted(w)
		validate(t, f)
		// Each rank's weight share must be within one max-weight of ideal.
		var mine float64
		for _, o := range f.Local {
			if o.Tree == 0 {
				mine += 10
			} else {
				mine++
			}
		}
		ideal := total / 4
		if mine < ideal-10 || mine > ideal+10 {
			t.Errorf("rank %d weight %v, ideal %v", c.Rank(), mine, ideal)
		}
	})
}

// checkBalanced verifies the 2:1 condition globally by brute force: every
// leaf overlapping any same-size neighbour image of leaf o must be at most
// one level coarser than o.
func checkBalanced(t *testing.T, conn *connectivity.Conn, all []octant.Octant, kind BalanceKind) {
	t.Helper()
	var regions []octant.Octant
	for _, o := range all {
		if o.Level < 1 {
			continue
		}
		regions = conn.AppendNeighbors(regions[:0], o, connectivity.Scope(kind))
		for _, n := range regions {
			lo, hi := octant.SearchOverlapRange(all, n)
			for i := lo; i < hi; i++ {
				if all[i].Level < o.Level-1 {
					t.Fatalf("unbalanced: leaf %v (level %d) touches %v needing level >= %d",
						all[i], all[i].Level, o, o.Level-1)
				}
			}
		}
	}
}

func TestBalanceFractal(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn *connectivity.Conn
	}{
		{"unitcube", connectivity.UnitCube()},
		{"six", connectivity.SixRotCubes()},
		{"shell", connectivity.Shell(0.55, 1.0)},
		{"torus", connectivity.Brick(2, 2, 2, true, true, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var serialSum uint64
			for _, p := range testRanks {
				mpi.Run(p, func(c *mpi.Comm) {
					f := New(c, conn0(tc.conn), 1)
					f.Refine(true, 4, fractalRefine(4))
					f.Balance(BalanceFull)
					validate(t, f)
					all := f.gatherAll()
					if c.Rank() == 0 {
						checkBalanced(t, tc.conn, all, BalanceFull)
					}
					sum := f.Checksum()
					if p == 1 {
						serialSum = sum
					} else if sum != serialSum {
						t.Errorf("p=%d balance differs from serial", p)
					}
				})
			}
		})
	}
}

func conn0(c *connectivity.Conn) *connectivity.Conn { return c }

func TestBalanceSingleDeepOctant(t *testing.T) {
	// Classic ripple test: one deep refinement must cascade through
	// neighbouring trees.
	conn := connectivity.Brick(2, 1, 1, false, false, false)
	mpi.Run(3, func(c *mpi.Comm) {
		f := New(c, conn, 0)
		target := octant.Root(1)
		for i := 0; i < 5; i++ {
			target = target.Child(0) // burrow toward tree 1's low corner (touching tree 0)
		}
		f.Refine(true, 5, func(o octant.Octant) bool {
			return o.Tree == 1 && o.Contains(target) && o.Level < 5
		})
		f.Balance(BalanceFull)
		validate(t, f)
		all := f.gatherAll()
		if c.Rank() == 0 {
			checkBalanced(t, conn, all, BalanceFull)
			// Tree 0 must have been refined by the ripple even though the
			// refinement was confined to tree 1.
			foundTree0Fine := false
			for _, o := range all {
				if o.Tree == 0 && o.Level >= 2 {
					foundTree0Fine = true
					break
				}
			}
			if !foundTree0Fine {
				t.Error("balance did not ripple into neighbouring tree")
			}
		}
	})
}

func TestBalanceKinds(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(2, func(c *mpi.Comm) {
		for _, kind := range []BalanceKind{BalanceFace, BalanceFaceEdge, BalanceFull} {
			f := New(c, conn, 1)
			f.Refine(true, 5, func(o octant.Octant) bool {
				return o.ChildID() == 0 && o.Level < 5
			})
			f.Balance(kind)
			validate(t, f)
			all := f.gatherAll()
			if c.Rank() == 0 {
				checkBalanced(t, conn, all, kind)
			}
		}
	})
}

func TestBalanceIdempotent(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(4, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, 3, fractalRefine(3))
		f.Balance(BalanceFull)
		sum := f.Checksum()
		f.Balance(BalanceFull)
		if f.Checksum() != sum {
			t.Error("balance is not idempotent")
		}
	})
}

func TestGhostAgainstReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn *connectivity.Conn
	}{
		{"brick", connectivity.Brick(2, 2, 1, false, false, false)},
		{"six", connectivity.SixRotCubes()},
		{"shell", connectivity.Shell(0.55, 1.0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{2, 5} {
				mpi.Run(p, func(c *mpi.Comm) {
					f := New(c, tc.conn, 1)
					f.Refine(true, 3, fractalRefine(3))
					f.Balance(BalanceFull)
					f.Partition()
					g := f.Ghost()
					all := f.gatherAll()

					// Reference for the layer's exact contents: remote
					// leaves whose same-size neighbourhood overlaps one of
					// our leaves (the symmetric send rule Ghost uses).
					want := map[octant.Octant]bool{}
					for _, q := range all {
						if f.OwnerOfPosition(markerOf(q)) == c.Rank() {
							continue
						}
						for _, n := range f.Conn.AppendNeighbors(nil, q, connectivity.FacesEdgesCorners) {
							lo, hi := octant.SearchOverlapRange(f.Local, n)
							if lo < hi {
								want[q] = true
								break
							}
						}
					}
					got := map[octant.Octant]bool{}
					for i, q := range g.Octants {
						got[q] = true
						if f.OwnerOfPosition(markerOf(q)) != g.Owner[i] {
							t.Errorf("ghost owner mismatch for %v", q)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("rank %d: ghost size %d, want %d", c.Rank(), len(got), len(want))
					}
					for q := range want {
						if !got[q] {
							t.Fatalf("rank %d: missing ghost %v", c.Rank(), q)
						}
					}
					for i := 1; i < len(g.Octants); i++ {
						if !octant.Less(g.Octants[i-1], g.Octants[i]) {
							t.Fatalf("ghost layer not strictly sorted at %d", i)
						}
					}

					// Completeness: every remote leaf actually touching a
					// local leaf (exact contact through the connectivity)
					// must be in the layer.
					for _, q := range all {
						if f.OwnerOfPosition(markerOf(q)) == c.Rank() || got[q] {
							continue
						}
						for _, o := range f.Local {
							if f.Conn.Touching(o, q) {
								t.Fatalf("rank %d: touching leaf %v of %v missing from ghost layer", c.Rank(), q, o)
							}
						}
					}

					// Mirrors must be exactly the local leaves appearing in
					// some other rank's ghost layer: verify reciprocity.
					type pair struct {
						o octant.Octant
						r int
					}
					var mine []pair
					for k, li := range g.Mirrors {
						for _, r := range g.MirrorRanks[k] {
							mine = append(mine, pair{f.Local[li], r})
						}
					}
					allPairs := mpi.Allgather(c, mine)
					// Every ghost I hold must be mirrored to me by its owner.
					mirrored := map[octant.Octant]map[int]bool{}
					for _, ps := range allPairs {
						for _, pr := range ps {
							if mirrored[pr.o] == nil {
								mirrored[pr.o] = map[int]bool{}
							}
							mirrored[pr.o][pr.r] = true
						}
					}
					for _, q := range g.Octants {
						if !mirrored[q][c.Rank()] {
							t.Fatalf("ghost %v not mirrored to rank %d", q, c.Rank())
						}
					}
				})
			}
		})
	}
}

func TestForestDeterministicAcrossRuns(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	run := func() uint64 {
		var sum uint64
		mpi.Run(4, func(c *mpi.Comm) {
			f := New(c, conn, 1)
			rng := rand.New(rand.NewSource(12345)) // same stream on all ranks is fine: used per-octant
			_ = rng
			f.Refine(true, 3, fractalRefine(3))
			f.Balance(BalanceFull)
			f.Partition()
			s := f.Checksum()
			if c.Rank() == 0 {
				sum = s
			}
		})
		return sum
	}
	if run() != run() {
		t.Error("forest pipeline not deterministic")
	}
}

func TestOwnerSearch(t *testing.T) {
	conn := connectivity.Brick(3, 1, 1, false, false, false)
	mpi.Run(5, func(c *mpi.Comm) {
		f := New(c, conn, 2)
		all := f.gatherAll()
		// Every leaf's owner must actually hold it.
		counts := mpi.Allgather(f.Comm, int64(len(f.Local)))
		starts := make([]int64, len(counts)+1)
		for i, n := range counts {
			starts[i+1] = starts[i] + n
		}
		for gi, o := range all {
			r := f.OwnerOfPosition(markerOf(o))
			if int64(gi) < starts[r] || int64(gi) >= starts[r+1] {
				t.Fatalf("owner of %v = %d, but global index %d not in [%d,%d)", o, r, gi, starts[r], starts[r+1])
			}
		}
	})
}
