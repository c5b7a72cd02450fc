package seismic

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// seisWorkersHash runs four steps of the periodic-brick plane wave on the
// given configuration and returns rank 0's collective state hash.
func seisWorkersHash(t *testing.T, p, workers int) uint64 {
	t.Helper()
	var h uint64
	mpi.RunOpt(p, mpi.RunOptions{Workers: workers}, func(c *mpi.Comm) {
		s := overlapSolver(c)
		if _, err := (sim.Run{Steps: 4}).Advance(c, s, 0); err != nil {
			t.Errorf("w=%d: run: %v", workers, err)
		}
		if hh := s.FieldHash(); c.Rank() == 0 {
			h = hh
		}
	})
	return h
}

// TestWorkersMatrixBitwise is the tentpole acceptance criterion at the
// elastic-wave frontend: one bitwise state hash across workers {1, 2, 4},
// at 1 and 4 ranks.
func TestWorkersMatrixBitwise(t *testing.T) {
	for _, p := range []int{1, 4} {
		want := seisWorkersHash(t, p, 1)
		for _, w := range []int{2, 4} {
			if got := seisWorkersHash(t, p, w); got != want {
				t.Errorf("p=%d workers=%d: hash %#x, want %#x", p, w, got, want)
			}
		}
	}
}

// TestStepAllocsWorkers bounds the steady-state allocations of a pooled
// elastic step (see the advect twin for rationale: the driver itself is
// allocation-free, the bound absorbs runtime scheduler noise).
func TestStepAllocsWorkers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 4}, func(c *mpi.Comm) {
		s := overlapSolver(c)
		dt := s.DT()
		for i := 0; i < 2; i++ {
			s.Step(dt) // warm up scratch and worker stacks
		}
		const rounds = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			s.Step(dt)
		}
		runtime.ReadMemStats(&m1)
		perStep := float64(m1.Mallocs-m0.Mallocs) / rounds
		if perStep > 32 {
			t.Fatalf("pooled Step allocates %.1f times per call, want <= 32", perStep)
		}
	})
}
