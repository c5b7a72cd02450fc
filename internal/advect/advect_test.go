package advect

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func smallOpts() Options {
	o := DefaultOptions()
	o.Degree = 3
	o.Level = 1
	o.MaxLevel = 3
	return o
}

func TestMassConservation(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		m0 := s.Mass()
		dt := s.DT()
		for i := 0; i < 5; i++ {
			s.Step(dt)
		}
		m1 := s.Mass()
		if math.Abs(m1-m0) > 1e-10*math.Abs(m0) {
			t.Fatalf("mass drifted: %v -> %v", m0, m1)
		}
	})
}

func TestMassConservedAcrossAdapt(t *testing.T) {
	mpi.Run(3, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		m0 := s.Mass()
		dt := s.DT()
		for i := 0; i < 4; i++ {
			s.Step(dt)
		}
		s.Adapt() // transfer + repartition must conserve the projection
		m1 := s.Mass()
		// L2 projection preserves element means exactly on affine elements;
		// on the curved shell the transfer changes mass only at the
		// interpolation-error level.
		if math.Abs(m1-m0) > 1e-5*math.Abs(m0) {
			t.Fatalf("mass changed too much across adapt: %v -> %v", m0, m1)
		}
	})
}

func TestRotationAccuracy(t *testing.T) {
	// A short integration must track the exact rotated solution closely.
	mpi.Run(2, func(c *mpi.Comm) {
		o := smallOpts()
		o.MaxLevel = 2 // uniform-ish; keeps dt large
		s := NewShell(c, o)
		norm0 := s.ErrorVsExact() // initial interpolation error ~ 0
		if norm0 > 1e-10 {
			t.Fatalf("initial error %v", norm0)
		}
		dt := s.DT()
		steps := 10
		for i := 0; i < steps; i++ {
			s.Step(dt)
		}
		err := s.ErrorVsExact()
		// Discretization error after a short time must be small relative to
		// the solution norm (which is O(0.1)).
		if err > 5e-3 {
			t.Fatalf("rotation error %v after %d steps (t=%v)", err, steps, s.Time)
		}
	})
}

func TestAdaptRefinesFronts(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		// After initialization the mesh must be adapted: more elements than
		// uniform level 1, fewer than uniform level 3.
		n := s.F.NumGlobal()
		if n <= 24*8 {
			t.Fatalf("mesh did not refine: %d elements", n)
		}
		if n >= 24*8*8*8 {
			t.Fatalf("mesh refined everywhere: %d elements", n)
		}
		// Element counts stay balanced across ranks after adapt+partition.
		diff := int64(s.F.NumLocal()) - s.F.NumGlobal()/int64(c.Size())
		if diff < 0 || diff > 1 {
			t.Fatalf("rank %d: %d of %d", c.Rank(), s.F.NumLocal(), s.F.NumGlobal())
		}
	})
}

// TestRunReportsAMRFraction checks the spans behind Figure 5's end-to-end
// quantity: after a run through the step loop (no tracer option, so the
// world's own span store), the fraction of solver time spent in AMR
// operations is recorded and proper.
func TestRunReportsAMRFraction(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		if _, err := (sim.Run{Steps: 8, AdaptEvery: 4}).Advance(c, s, 0); err != nil {
			t.Fatal(err)
		}
		tr := c.Tracer()
		amr := mpi.AllreduceSumFloat(c, tr.Total("adapt").Seconds())
		integ := mpi.AllreduceSumFloat(c, tr.Total("solve").Seconds())
		if frac := amr / (amr + integ); !(frac > 0 && frac < 1) {
			t.Fatalf("amr fraction %v out of (0,1)", frac)
		}
	})
}

func TestMassPInvariance(t *testing.T) {
	var masses []float64
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			s := NewShell(c, smallOpts())
			m := s.Mass()
			if c.Rank() == 0 {
				masses = append(masses, m)
			}
		})
	}
	if math.Abs(masses[0]-masses[1]) > 1e-9*math.Abs(masses[0]) {
		t.Fatalf("mass depends on rank count: %v", masses)
	}
}
