package advect

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// TestRebuildMatchesFromScratch is the solver's half of the mangll test of
// the same name: after each adapt cycle of a run whose fronts move (so that
// elements are refined ahead of them and coarsened behind), the velocity
// tables the solver carried through the rebuild — contravariant velocities
// and face flows — and the link flows derived from them equal, bitwise,
// those of a solver built from nothing on the same forest.
func TestRebuildMatchesFromScratch(t *testing.T) {
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
	}
	swirl := func(x, y, z float64) (float64, float64, float64) { return -y, x, 0.3 * math.Sin(x) }
	front := func(x, y, z float64) float64 {
		dx, dy, dz := x-1.9, y-0.8, z-1.0
		return math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * 0.3 * 0.3))
	}
	for _, p := range []int{1, 2, 3} {
		for _, w := range []int{1, 2} {
			mpi.RunOpt(p, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
				for _, name := range []string{"shell", "six"} {
					// Steps between adapts: enough for the front to leave
					// an element behind.
					o := smallOpts()
					o.Degree = 2
					s, steps := NewShell(c, o), 4
					if name == "six" {
						s, steps = NewCustom(c, connectivity.SixRotCubes(), o, swirl, front), 12
					}
					var kept, fresh int64
					for cycle := 0; cycle < 3; cycle++ {
						dt := s.DT()
						for i := 0; i < steps; i++ {
							s.Step(dt)
						}
						if !s.Adapt() {
							continue
						}
						for _, from := range s.Mesh.Src {
							if from >= 0 {
								kept++
							} else {
								fresh++
							}
						}
						ref := newSolver(c, s.Conn, s.Opts, s.velFn, s.icFn)
						ref.F = s.F
						ref.rebuild()
						what := fmt.Sprintf("%s P=%d w=%d cycle %d", name, p, w, cycle)
						for a := 0; a < 3; a++ {
							if !sameBits(s.cv[a], ref.cv[a]) {
								t.Errorf("%s: carried cv[%d] differs from a new solver's", what, a)
							}
						}
						if !sameBits(s.faceUn, ref.faceUn) {
							t.Errorf("%s: carried faceUn differs from a new solver's", what)
						}
						if !sameBits(s.unw, ref.unw) {
							t.Errorf("%s: unw differs from a new solver's", what)
						}
						if len(s.buf) != len(ref.buf) {
							t.Errorf("%s: work array of %d values, want %d", what, len(s.buf), len(ref.buf))
						}
					}
					kept, fresh = mpi.AllreduceSum(c, kept), mpi.AllreduceSum(c, fresh)
					if kept == 0 || fresh == 0 {
						t.Errorf("%s P=%d w=%d: %d elements kept and %d fresh over the run, want both", name, p, w, kept, fresh)
					}
				}
			})
		}
	}
}

// TestAdaptAllocsBytesPerElement bounds what one steady-state adapt cycle
// allocates, per element of the mesh: the mesh and the solver's tables are
// rebuilt in place, so what is left is the forest's own arrays, the ghost
// layer, the transferred field and the link set-up — 1,479 B, where
// allocating a new mesh beside the old one took 18.8 kB (and 2,015 B
// before Partition sized its merged arrays to what arrives and stopped
// copying the run a rank keeps twice). The bound is the reading plus
// under 10 %.
func TestAdaptAllocsBytesPerElement(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		step := func() {
			dt := s.DT()
			for i := 0; i < 4; i++ {
				s.Step(dt)
			}
		}
		var bytes, elems uint64
		var ms runtime.MemStats
		for cycle := 0; cycle < 6; cycle++ {
			step()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			changed := s.Adapt()
			runtime.ReadMemStats(&ms)
			// The first cycles grow the tables to their working size.
			if cycle >= 2 && changed {
				bytes += ms.TotalAlloc - before
				elems += uint64(s.Mesh.NumLocal)
			}
		}
		if elems == 0 {
			t.Fatal("no adapt cycle changed the mesh")
		}
		if per := bytes / elems; per > 1620 {
			t.Errorf("Adapt allocates %d bytes per element, want at most 1620", per)
		} else {
			t.Logf("Adapt allocates %d bytes per element", per)
		}
	})
}

// TestRetainedBytesPerElement pins what the solver keeps, where
// TestAdaptAllocsBytesPerElement pins what an adapt cycle allocates: the
// live heap after a forced collection, per local element, after NewShell
// and after two adapt cycles, at P = 1 and 2. The solver keeps its state,
// integrator registers and velocity tables, the mesh its coordinates,
// Jacobian and mass; the mesh used to keep the metric J dxi/dx and 1/J as
// well, ten more values per node: 12.4 and 13.6 kB per element at P = 2,
// where it now keeps 7.5 and 8.7 kB. Each bound is the larger reading (at
// P = 2) plus under 10 %.
func TestRetainedBytesPerElement(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures hold only without -race")
	}
	live := func() float64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	names := [2]string{"NewShell", "two adapt cycles"}
	bound := [2]float64{8200, 9500}
	for _, p := range []int{1, 2} {
		var got [2]float64
		base := live()
		mpi.RunOpt(p, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
			s := NewShell(c, smallOpts())
			measure := func(i int) {
				elems := mpi.AllreduceSum(c, int64(s.Mesh.NumLocal))
				if c.Rank() == 0 {
					got[i] = (live() - base) / float64(elems)
				}
				c.Barrier()
			}
			measure(0)
			for cycle := 0; cycle < 2; cycle++ {
				dt := s.DT()
				for i := 0; i < 4; i++ {
					s.Step(dt)
				}
				s.Adapt()
			}
			measure(1)
			runtime.KeepAlive(s)
		})
		for i, name := range names {
			t.Logf("P = %d: %5.0f B per element after %s", p, got[i], name)
			if got[i] > bound[i] {
				t.Errorf("P = %d: the solver keeps %.0f B per element after %s, want at most %.0f", p, got[i], name, bound[i])
			}
		}
	}
}
