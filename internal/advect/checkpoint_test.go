package advect

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func ckptOpts() Options {
	o := DefaultOptions()
	o.Degree = 2
	o.Level = 1
	o.MaxLevel = 2
	return o
}

func ckptChaosPlan(seed int64) *mpi.FaultPlan {
	return &mpi.FaultPlan{
		Seed: seed, Drop: 0.2, Dup: 0.2, Delay: 0.2, Reorder: 0.2,
		MaxDelay: 100 * time.Microsecond, RetryTimeout: 50 * time.Microsecond,
		CrashRank: -1,
	}
}

// TestChaosSolverBitwise runs the full adaptive solver under a seeded
// fault plan (no crash) and checks the distributed state hash matches the
// fault-free run exactly.
func TestChaosSolverBitwise(t *testing.T) {
	const p = 5
	run := func(plan *mpi.FaultPlan) uint64 {
		var h uint64
		err := mpi.RunErrOpt(p, mpi.RunOptions{Plan: plan}, func(c *mpi.Comm) error {
			s := NewShell(c, ckptOpts())
			if _, err := (sim.Run{Steps: 4, AdaptEvery: 2}).Advance(c, s, 0); err != nil {
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
	for seed := int64(1); seed <= 2; seed++ {
		if got := run(ckptChaosPlan(seed)); got != clean {
			t.Errorf("seed %d: solver state diverges under faults: %#x vs %#x", seed, got, clean)
		}
	}
}

// TestCrashResumeBitwise is the tentpole acceptance test: an injected
// rank crash mid-run, recovered by resuming from the last periodic
// checkpoint, reproduces the uninterrupted run's final state bitwise —
// all under an active chaos plan.
func TestCrashResumeBitwise(t *testing.T) {
	const (
		p          = 3
		nsteps     = 6
		adaptEvery = 2
		every      = 2 // checkpoint cadence
	)
	base := filepath.Join(t.TempDir(), "ckpt")

	// Uninterrupted reference.
	var want uint64
	mpi.Run(p, func(c *mpi.Comm) {
		s := NewShell(c, ckptOpts())
		if _, err := (sim.Run{Steps: nsteps, AdaptEvery: adaptEvery}).Advance(c, s, 0); err != nil {
			t.Errorf("reference run: %v", err)
		}
		if h := s.FieldHash(); c.Rank() == 0 {
			want = h
		}
	})

	// Crash rank 1 at step 5: the last checkpoint before it is step 4.
	plan := ckptChaosPlan(9)
	plan.CrashRank = 1
	plan.CrashStep = 5
	err := mpi.RunErrOpt(p, mpi.RunOptions{Plan: plan}, func(c *mpi.Comm) error {
		s := NewShell(c, ckptOpts())
		_, err := sim.Run{Steps: nsteps, AdaptEvery: adaptEvery, CheckpointEvery: every, Base: base}.Advance(c, s, 0)
		return err
	})
	if !mpi.IsInjectedCrash(err) {
		t.Fatalf("want injected crash, got %v", err)
	}
	if !core.CheckpointExists(base) {
		t.Fatal("no checkpoint written before the crash")
	}

	// Resume from the checkpoint (still under chaos) and finish the run.
	var got uint64
	var resumedAt int64
	err = mpi.RunErrOpt(p, mpi.RunOptions{Plan: ckptChaosPlan(10)}, func(c *mpi.Comm) error {
		s, start, err := ResumeShell(c, ckptOpts(), base)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			resumedAt = start
		}
		if _, err := (sim.Run{Steps: nsteps, AdaptEvery: adaptEvery, CheckpointEvery: every, Base: base}).Advance(c, s, start); err != nil {
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
	if resumedAt != 4 {
		t.Errorf("resumed at step %d, want 4", resumedAt)
	}
	if got != want {
		t.Errorf("resumed run diverges from uninterrupted run: %#x vs %#x", got, want)
	}
}

// TestResumeErrorsOnMissingOrMismatched pins the resume failure modes: a
// missing checkpoint and an options mismatch (different degree => field
// size mismatch) must error, not silently mis-restore.
func TestResumeErrorsOnMissingOrMismatched(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ckpt")
	mpi.Run(1, func(c *mpi.Comm) {
		if _, _, err := ResumeShell(c, ckptOpts(), filepath.Join(dir, "nope")); err == nil {
			t.Error("resume from missing checkpoint succeeded")
		}
		s := NewShell(c, ckptOpts())
		if err := s.SaveCheckpoint(base, 3); err != nil {
			t.Fatalf("save: %v", err)
		}
		bad := ckptOpts()
		bad.Degree = 3
		if _, _, err := ResumeShell(c, bad, base); err == nil {
			t.Error("resume with mismatched degree succeeded")
		}
	})
}

// TestConcurrentSaveCollision pins the job-scoped temp-name fix: two
// checkpoint writers sharing one base path (two concurrent server jobs,
// or a job racing its auto-restarted successor) save repeatedly at the
// same time. With the old fixed ".tmp" names, one writer's os.Create
// truncated the file the other was mid-writing, or renamed the other's
// partial file into place — a corrupt "complete" checkpoint. With
// per-call unique temp names every rename installs a fully written file,
// so the base stays loadable throughout and afterward, and no temp
// litter survives.
func TestConcurrentSaveCollision(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "shared")
	opts := ckptOpts()

	// Reference state: the hash both writers' checkpoints must restore to
	// (identical solvers at the same step write identical bytes).
	var want uint64
	mpi.Run(2, func(c *mpi.Comm) {
		s := NewShell(c, opts)
		if _, err := (sim.Run{Steps: 2, AdaptEvery: 2}).Advance(c, s, 0); err != nil {
			t.Error(err)
			return
		}
		if h := s.FieldHash(); c.Rank() == 0 {
			want = h
		}
	})

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mpi.Run(2, func(c *mpi.Comm) {
				s := NewShell(c, opts)
				if _, err := (sim.Run{Steps: 2, AdaptEvery: 2}).Advance(c, s, 0); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 10; i++ {
					if err := s.SaveCheckpoint(base, 2); err != nil {
						t.Errorf("concurrent save %d: %v", i, err)
						return
					}
				}
			})
		}()
	}
	wg.Wait()

	// The installed checkpoint must be a complete, restorable pair.
	mpi.Run(3, func(c *mpi.Comm) {
		s, step, err := ResumeShell(c, opts, base)
		if err != nil {
			t.Errorf("resume after concurrent saves: %v", err)
			return
		}
		if step != 2 {
			t.Errorf("resumed step = %d, want 2", step)
		}
		if h := s.FieldHash(); c.Rank() == 0 && h != want {
			t.Errorf("restored hash %#x, want %#x", h, want)
		}
	})

	// No temp litter: every writer renamed or removed its own temps.
	left, err := filepath.Glob(base + "*.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}
