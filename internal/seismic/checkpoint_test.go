package seismic

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func seisChaosPlan(seed int64) *mpi.FaultPlan {
	return &mpi.FaultPlan{
		Seed: seed, Drop: 0.2, Dup: 0.2, Delay: 0.2, Reorder: 0.2,
		MaxDelay: 100 * time.Microsecond, RetryTimeout: 50 * time.Microsecond,
		CrashRank: -1,
	}
}

// ckptSolver builds the deterministic plane-wave setup used by the
// checkpoint tests: periodic unit brick, homogeneous material, P wave.
func ckptSolver(c *mpi.Comm) (*Solver, *connectivity.Conn, Options) {
	conn := connectivity.Brick(1, 1, 1, true, true, true)
	f := core.New(c, conn, 2)
	f.Balance(core.BalanceFull)
	f.Partition()
	opts := DefaultOptions()
	opts.Degree = 2
	s := NewSolver(c, f, opts, homogeneous(1, 1, 1))
	s.setPlaneWave([3]float64{2 * math.Pi, 0, 0}, [3]float64{1, 0, 0}, math.Sqrt(3.0)*2*math.Pi)
	return s, conn, opts
}

// TestSeismicCrashResumeBitwise injects a rank crash mid-run under an
// active chaos plan, resumes from the last periodic checkpoint, and
// requires the final state to match the uninterrupted run bitwise.
func TestSeismicCrashResumeBitwise(t *testing.T) {
	const (
		p      = 3
		nsteps = 6
		every  = 2
	)
	base := filepath.Join(t.TempDir(), "seis")

	var want uint64
	mpi.Run(p, func(c *mpi.Comm) {
		s, _, _ := ckptSolver(c)
		if _, err := (sim.Run{Steps: nsteps}).Advance(c, s, 0); err != nil {
			t.Errorf("reference run: %v", err)
		}
		if h := s.FieldHash(); c.Rank() == 0 {
			want = h
		}
	})

	plan := seisChaosPlan(21)
	plan.CrashRank = 2
	plan.CrashStep = 5
	err := mpi.RunErrOpt(p, mpi.RunOptions{Plan: plan}, func(c *mpi.Comm) error {
		s, _, _ := ckptSolver(c)
		_, err := sim.Run{Steps: nsteps, CheckpointEvery: every, Base: base}.Advance(c, s, 0)
		return err
	})
	if !mpi.IsInjectedCrash(err) {
		t.Fatalf("want injected crash, got %v", err)
	}
	if !core.CheckpointExists(base) {
		t.Fatal("no checkpoint written before the crash")
	}

	var got uint64
	err = mpi.RunErrOpt(p, mpi.RunOptions{Plan: seisChaosPlan(22)}, func(c *mpi.Comm) error {
		conn := connectivity.Brick(1, 1, 1, true, true, true)
		opts := DefaultOptions()
		opts.Degree = 2
		s, start, err := Resume(c, conn, opts, homogeneous(1, 1, 1), nil, base)
		if err != nil {
			return err
		}
		if start != 4 {
			t.Errorf("resumed at step %d, want 4", start)
		}
		if _, err := (sim.Run{Steps: nsteps, CheckpointEvery: every, Base: base}).Advance(c, s, start); err != nil {
			return err
		}
		if h := s.FieldHash(); c.Rank() == 0 {
			got = h
		}
		return nil
	})
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if got != want {
		t.Errorf("resumed run diverges from uninterrupted run: %#x vs %#x", got, want)
	}
}

// TestSeismicChaosBitwise runs the elastic-wave solver under a fault plan
// with no crash and checks the state hash against the fault-free run.
func TestSeismicChaosBitwise(t *testing.T) {
	const p = 4
	run := func(plan *mpi.FaultPlan) uint64 {
		var h uint64
		err := mpi.RunErrOpt(p, mpi.RunOptions{Plan: plan}, func(c *mpi.Comm) error {
			s, _, _ := ckptSolver(c)
			if _, err := (sim.Run{Steps: 4}).Advance(c, s, 0); err != nil {
				return err
			}
			if hh := s.FieldHash(); c.Rank() == 0 {
				h = hh
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return h
	}
	clean := run(nil)
	if got := run(seisChaosPlan(5)); got != clean {
		t.Errorf("solver state diverges under faults: %#x vs %#x", got, clean)
	}
}
