package core

import (
	"math/rand"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// TestRandomAdaptationPipelines drives randomized refine/coarsen/partition/
// balance sequences on several connectivities and checks the full
// invariant set after every step, plus serial-vs-parallel agreement.
func TestRandomAdaptationPipelines(t *testing.T) {
	conns := map[string]*connectivity.Conn{
		"brick": connectivity.Brick(2, 2, 1, false, false, false),
		"six":   connectivity.SixRotCubes(),
		"torus": connectivity.Brick(1, 1, 1, true, true, true),
	}
	for name, conn := range conns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				var serial uint64
				for _, p := range []int{1, 4} {
					var sum uint64
					mpi.Run(p, func(c *mpi.Comm) {
						// Same deterministic pseudo-random marking on all
						// ranks: derived from octant identity, not rank.
						mark := func(o octant.Octant, salt int64) bool {
							h := uint64(o.Tree)*2654435761 +
								uint64(uint32(o.X))*40503 +
								uint64(uint32(o.Y))*30011 +
								uint64(uint32(o.Z))*12343 +
								uint64(o.Level)*977 + uint64(salt)*7919
							return h%5 == 0
						}
						f := New(c, conn, 1)
						rng := rand.New(rand.NewSource(seed))
						for step := 0; step < 3; step++ {
							salt := rng.Int63() // same sequence on all ranks
							f.Refine(false, 4, func(o octant.Octant) bool { return mark(o, salt) })
							validate(t, f)
							f.Coarsen(false, func(parent octant.Octant, kids []octant.Octant) bool {
								return mark(parent, salt+1)
							})
							validate(t, f)
							f.Balance(BalanceFull)
							validate(t, f)
							f.Partition()
							validate(t, f)
						}
						// Checksum is collective and rank-identical; assign
						// from one rank so the rank goroutines don't race on
						// the shared variable.
						s := f.Checksum()
						if c.Rank() == 0 {
							sum = s
						}
					})
					if p == 1 {
						serial = sum
					} else if sum != serial {
						t.Fatalf("%s seed %d: parallel pipeline diverged from serial", name, seed)
					}
				}
			}
		})
	}
}

// TestBalanceMinimality checks that Balance never refines an already
// balanced forest (it must be a fixpoint on its own output) and that each
// refinement it does perform is forced: coarsening any balanced-forest
// family back breaks the 2:1 condition.
func TestBalanceMinimality(t *testing.T) {
	conn := connectivity.SixRotCubes()
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		f.Refine(true, 4, fractalRefine(4))
		before := f.NumGlobal()
		f.Balance(BalanceFull)
		added := f.NumGlobal() - before
		if added <= 0 {
			t.Skip("fractal pattern happened to be balanced")
		}
		all := append([]octant.Octant(nil), f.Local...)
		// Find a family that exists only because of balancing (its parent
		// was a leaf before): coarsen it and verify the 2:1 check fails.
		broken := false
		for i := 0; i+8 <= len(all) && !broken; i++ {
			fam := all[i : i+8]
			if !octant.IsFamily(fam) {
				continue
			}
			// Build the coarsened variant.
			variant := append([]octant.Octant(nil), all[:i]...)
			variant = append(variant, fam[0].Parent())
			variant = append(variant, all[i+8:]...)
			if !isBalancedList(conn, variant) {
				broken = true
			}
		}
		// At least one family must be load-bearing; otherwise Balance
		// over-refined. (Families that were already present before Balance
		// may be coarsenable, so we only require existence.)
		if !broken {
			t.Error("no family is required by the 2:1 condition: Balance over-refined")
		}
	})
}

func isBalancedList(conn *connectivity.Conn, leaves []octant.Octant) bool {
	for _, o := range leaves {
		if o.Level < 1 {
			continue
		}
		for _, n := range conn.AppendNeighbors(nil, o, connectivity.FacesEdgesCorners) {
			lo, hi := octant.SearchOverlapRange(leaves, n)
			for i := lo; i < hi; i++ {
				if leaves[i].Level < o.Level-1 {
					return false
				}
			}
		}
	}
	return true
}

// TestValidateDetectsCorruption flips forest state in targeted ways and
// checks Validate reports each violation.
func TestValidateDetectsCorruption(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(1, func(c *mpi.Comm) {
		fresh := func() *Forest { return New(c, conn, 2) }

		f := fresh()
		f.Local[3], f.Local[4] = f.Local[4], f.Local[3]
		if err := f.Validate(); err == nil {
			t.Error("out-of-order leaves not detected")
		}

		f = fresh()
		f.Local[2].Level = 3 // creates a gap (leaf shrank)
		if err := f.Validate(); err == nil {
			t.Error("coverage gap not detected")
		}

		f = fresh()
		f.Local[2].X++ // misaligned coordinates
		if err := f.Validate(); err == nil {
			t.Error("misaligned octant not detected")
		}

		f = fresh()
		f.Local = f.Local[:len(f.Local)-1] // stale counts
		if err := f.Validate(); err == nil {
			t.Error("stale counts not detected")
		}
	})
}

// TestPanicsOnBadInput asserts the documented panics of the public API.
func TestPanicsOnBadInput(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(1, func(c *mpi.Comm) {
		mustPanic(t, "bad level", func() { New(c, conn, -1) })
		mustPanic(t, "deep level", func() { New(c, conn, octant.MaxLevel+1) })
		f := New(c, conn, 1)
		mustPanic(t, "bad weights len", func() { f.PartitionWeighted([]float64{1}) })
		w := make([]float64, f.NumLocal())
		mustPanic(t, "nonpositive weight", func() { f.PartitionWeighted(w) })
		mustPanic(t, "bad payload", func() { f.PartitionWithData(3, []float64{1}) })
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestPartitionChurn demonstrates the element churn the paper quotes for
// aggressive adaptivity ("over 99% of the elements" exchanged during
// repartitioning): moving the refined region from one end of the curve to
// the other shifts every segment boundary, so nearly all octants ship.
func TestPartitionChurn(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(8, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		// Refine the low-tree end and balance the load.
		f.Refine(true, 3, func(o octant.Octant) bool { return o.Tree < 4 && o.Level < 3 })
		f.Partition()
		// Move the refinement to the high-tree end: coarsen everything,
		// refine the other side.
		f.Coarsen(true, func(parent octant.Octant, kids []octant.Octant) bool {
			return parent.Level >= 1
		})
		f.Refine(true, 3, func(o octant.Octant) bool { return o.Tree >= 20 && o.Level < 3 })
		before := f.NumGlobal()
		sent := f.Partition()
		total := mpi.AllreduceSum(c, sent)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if f.NumGlobal() != before {
			t.Fatalf("partition changed the forest")
		}
		frac := float64(total) / float64(f.NumGlobal())
		if frac < 0.5 {
			t.Fatalf("expected heavy churn, only %.1f%% shipped", 100*frac)
		}
	})
}
