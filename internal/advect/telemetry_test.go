package advect

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/raceflag"
	"repro/internal/trace"
)

// TestStepAllocsWithTelemetry pins the serial RK step at zero steady-state
// allocations with the full telemetry stack on: a ring tracer with its
// running aggregates, live transport metrics in a sharded registry, and
// the solver's own histogram/gauge recording. Observability must cost nothing
// on the hot path beyond a few atomic stores.
func TestStepAllocsWithTelemetry(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	world := metrics.NewSharded(1)
	tr := trace.NewRing(1, 1024)
	mpi.RunOpt(1, mpi.RunOptions{Tracer: tr, Metrics: world, Workers: 1}, func(c *mpi.Comm) {
		s := NewShell(c, smallOpts())
		dt := s.DT()
		s.Step(dt) // warm up scratch, histogram lanes, and the span aggregates
		allocs := testing.AllocsPerRun(10, func() {
			s.Step(dt)
		})
		if allocs != 0 {
			t.Fatalf("Step allocates %v times per call with telemetry enabled, want 0", allocs)
		}
	})
	if st, ok := tr.Phase("solve"); !ok || st.Count == 0 {
		t.Fatal("span aggregates recorded no solve span")
	}
}
