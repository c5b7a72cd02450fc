package seismic

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestSeismicCrossTransportBitwise pins that the elastic-wave solver's
// distributed state hash is identical on every registered transport
// backend — the determinism half of the scaling acceptance criterion
// (speed may differ per backend; bits may not).
func TestSeismicCrossTransportBitwise(t *testing.T) {
	const p = 3
	var ref uint64
	var refTP string
	for _, tp := range mpi.Transports() {
		var h uint64
		mpi.RunOpt(p, mpi.RunOptions{Transport: tp}, func(c *mpi.Comm) {
			s, _, _ := ckptSolver(c)
			if _, err := (sim.Run{Steps: 4}).Advance(c, s, 0); err != nil {
				t.Errorf("%s: run: %v", tp, err)
			}
			if hh := s.FieldHash(); c.Rank() == 0 {
				h = hh
			}
		})
		if refTP == "" {
			ref, refTP = h, tp
			continue
		}
		if h != ref {
			t.Errorf("transport %s diverges from %s: %#x vs %#x", tp, refTP, h, ref)
		}
	}
}
