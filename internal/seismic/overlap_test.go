package seismic

import (
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// overlapSolver is the periodic-brick plane wave the schedule tests and
// benchmarks step.
func overlapSolver(c *mpi.Comm) *Solver {
	conn := connectivity.Brick(1, 1, 1, true, true, true)
	f := core.New(c, conn, 2)
	f.Balance(core.BalanceFull)
	f.Partition()
	opts := DefaultOptions()
	opts.Degree = 3
	s := NewSolver(c, f, opts, homogeneous(1, 1, 1))
	s.setPlaneWave([3]float64{6.28, 0, 0}, [3]float64{1, 0, 0}, 6.28)
	return s
}

// TestRHSAllocs pins the steady-state allocation count of the elastic
// right-hand side at exactly zero in serial. Workers is pinned to 1
// explicitly so the exact-zero bound holds under an AMR_WORKERS test
// environment; the pooled path is bounded by TestStepAllocsWorkers.
func TestRHSAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := overlapSolver(c)
		dq := make([]float64, len(s.Q))
		s.RHS(0, s.Q, dq) // warm up lazily allocated scratch
		allocs := testing.AllocsPerRun(10, func() {
			s.RHS(0, s.Q, dq)
		})
		if allocs != 0 {
			t.Fatalf("RHS allocates %v times per call, want 0", allocs)
		}
	})
}

// TestStepAllocs pins a full serial RK step at zero steady-state
// allocations.
func TestStepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := overlapSolver(c)
		dt := s.DT()
		s.Step(dt) // warm up integrator registers and scratch
		allocs := testing.AllocsPerRun(5, func() {
			s.Step(dt)
		})
		if allocs != 0 {
			t.Fatalf("Step allocates %v times per call, want 0", allocs)
		}
	})
}
