package advect

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// TestRebuildMatchesFromScratch is the solver's half of the mangll test of
// the same name: after each adapt cycle of a run whose fronts move (so that
// elements are refined ahead of them and coarsened behind), the velocity
// tables the solver carried through the rebuild equal, bitwise, those of a
// solver built from nothing on the same forest.
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
// layer, the transferred field and the link set-up — under 5 kB, where
// allocating a new mesh beside the old one took 18.8 kB.
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
		if per := bytes / elems; per > 5000 {
			t.Errorf("Adapt allocates %d bytes per element, want at most 5000", per)
		} else {
			t.Logf("Adapt allocates %d bytes per element", per)
		}
	})
}
