package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/advect"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestAdaptGolden: a fixed-step advection run whose in-loop adapt cycles
// refine ahead of the fronts and coarsen behind them ends, on one, two and
// three ranks, in the state it reached at the commit before the mesh was
// rebuilt in place and Balance seeded from the changed leaves (9b54410),
// where these constants were recorded. Of the eight in-loop cycles four
// change the forest.
func TestAdaptGolden(t *testing.T) {
	const (
		steps = 32
		hash  = 0x31c7fd53550c511d
	)
	names := []string{"elements_coarsened", "elements_refined", "amr_unchanged"}
	for _, p := range []int{1, 2, 3} {
		// The counters' in-loop change, summed over ranks.
		want := []int64{1152, 56, 4 * int64(p)}
		var start, end []int64
		count := func(c *mpi.Comm, s sim.Solver) []int64 {
			out := make([]int64, len(names))
			for i, n := range names {
				out[i] = mpi.AllreduceSum(c, s.Metrics().Count(n))
			}
			return out
		}
		run := sim.Run{
			App: advect.ShellApp(advectOpts(2, 1, 3)), Steps: steps, AdaptEvery: 4,
			OnStart: func(c *mpi.Comm, s sim.Solver, _ int64, _ bool) error {
				if v := count(c, s); c.Rank() == 0 {
					start = v
				}
				return nil
			},
			OnStep: func(c *mpi.Comm, s sim.Solver, step int64, _ bool) error {
				if step == steps {
					if v := count(c, s); c.Rank() == 0 {
						end = v
					}
				}
				return nil
			},
		}
		res := runApp(t, p, run, false)
		for i := range end {
			end[i] -= start[i]
		}
		if res.Hash != hash || fmt.Sprint(end) != fmt.Sprint(want) {
			t.Errorf("P=%d: hash %#016x, %v = %v; want %#016x, %v", p, res.Hash, names, end, uint64(hash), want)
		}
	}
}
