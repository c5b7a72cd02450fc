package advect

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/raceflag"
	"repro/internal/sim"
)

// workersHash runs the short adaptive checkpoint workload (4 steps,
// adaptation every 2) on the given configuration and returns rank 0's
// collective state hash.
func workersHash(t *testing.T, p, workers int) uint64 {
	t.Helper()
	var h uint64
	mpi.RunOpt(p, mpi.RunOptions{Workers: workers}, func(c *mpi.Comm) {
		s := NewShell(c, ckptOpts())
		if _, err := (sim.Run{Steps: 4, AdaptEvery: 2}).Advance(c, s, 0); err != nil {
			t.Errorf("w=%d: run: %v", workers, err)
		}
		if hh := s.FieldHash(); c.Rank() == 0 {
			h = hh
		}
	})
	return h
}

// TestWorkersMatrixBitwise is the tentpole acceptance criterion at the
// advection frontend: the full adaptive solve must produce one bitwise
// state hash across workers {1, 2, 4}, at 1 and 4 ranks. The kernel driver
// executes elements and links in the identical per-element order on every
// path, so even floating-point rounding cannot distinguish them.
func TestWorkersMatrixBitwise(t *testing.T) {
	for _, p := range []int{1, 4} {
		want := workersHash(t, p, 1)
		for _, w := range []int{2, 4} {
			if got := workersHash(t, p, w); got != want {
				t.Errorf("p=%d workers=%d: hash %#x, want %#x", p, w, got, want)
			}
		}
	}
}

// TestWorkerPoolChurn cycles many short-lived worlds with per-rank pools
// (solver construction, one step, teardown). Under
// -race this is the pool's lifecycle stress: worker startup, job
// hand-off, and Close must leave no racing goroutine behind when the
// world exits.
func TestWorkerPoolChurn(t *testing.T) {
	for i := 0; i < 3; i++ {
		for _, w := range []int{2, 3} {
			mpi.RunOpt(2, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
				s := NewShell(c, ckptOpts())
				s.Step(s.DT())
			})
		}
	}
}

// TestStepAllocsWorkers bounds the steady-state allocations of a pooled
// step. The exact-zero serial pin (TestStepAllocs) cannot hold with
// worker goroutines in play — the runtime's scheduler may allocate — but
// the kernel driver itself must not: batches, phase closures, and Work
// scratch are all prebuilt. The bound is a small constant per step, far
// below one allocation per batch or per element.
func TestStepAllocsWorkers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 4}, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		dt := s.DT()
		for i := 0; i < 3; i++ {
			s.Step(dt) // warm up scratch and worker stacks
		}
		const rounds = 50
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

// TestRHSAllocs pins the steady-state allocation count of the advection
// right-hand side at exactly zero in serial: all scratch is solver- or
// mesh-owned, and the serial exchange path touches no heap. Workers is
// pinned to 1 explicitly so the exact-zero bound holds even when the test
// environment sets AMR_WORKERS (the pooled path has its own bounded-alloc
// pin in TestStepAllocsWorkers).
func TestRHSAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		dc := make([]float64, len(s.C))
		s.RHS(s.C, dc) // warm up lazily allocated scratch
		allocs := testing.AllocsPerRun(20, func() {
			s.RHS(s.C, dc)
		})
		if allocs != 0 {
			t.Fatalf("RHS allocates %v times per call, want 0", allocs)
		}
	})
}

// TestStepAllocs pins a full serial RK step (5 RHS evaluations plus the
// integrator update) at zero steady-state allocations.
func TestStepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		dt := s.DT()
		s.Step(dt) // warm up integrator registers and scratch
		allocs := testing.AllocsPerRun(10, func() {
			s.Step(dt)
		})
		if allocs != 0 {
			t.Fatalf("Step allocates %v times per call, want 0", allocs)
		}
	})
}
