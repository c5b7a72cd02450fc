package advect

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestAdvectCrossTransportBitwise pins the acceptance criterion for the
// pluggable transport: the full adaptive advection solve — refinement,
// coarsening, repartitioning, split-phase ghost exchange — produces a
// bitwise-identical distributed state hash on every registered backend.
// The backends schedule ranks completely differently (goroutines vs
// pinned OS threads, mutex mailboxes vs lock-free rings); the physics
// must not be able to tell.
func TestAdvectCrossTransportBitwise(t *testing.T) {
	const p = 5
	var ref uint64
	var refTP string
	for _, tp := range mpi.Transports() {
		var h uint64
		mpi.RunOpt(p, mpi.RunOptions{Transport: tp}, func(c *mpi.Comm) {
			s := NewShell(c, ckptOpts())
			if _, err := (sim.Run{Steps: 4, AdaptEvery: 2}).Advance(c, s, 0); err != nil {
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
