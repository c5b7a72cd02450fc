package sim

import (
	"errors"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Solver is what the step loop drives. Both dG solvers implement it.
type Solver interface {
	DT() float64
	Step(dt float64)
	SimTime() float64
	// SaveCheckpoint writes the state at a step boundary to the
	// checkpoint pair of base (core.SaveCheckpoint). Collective.
	SaveCheckpoint(base string, step int64) error
	// FieldHash is the collective bitwise fingerprint of the state.
	FieldHash() uint64
	Metrics() *metrics.Registry
}

// Adapter is implemented by solvers the loop can adapt dynamically: one
// AMR cycle, returning whether the mesh changed (the loop then asks for a
// new DT).
type Adapter interface {
	Adapt() bool
}

// App constructs one rank's solver: fresh, or restored from the
// checkpoint at base together with the step it was taken at. Everything a
// checkpoint does not hold — options, material model, source — is bound
// in the closures, so a resumed solver cannot come back without it.
type App struct {
	New    func(c *mpi.Comm) Solver
	Resume func(c *mpi.Comm, base string) (Solver, int64, error)
}

// ErrCanceled is returned by a run whose hook asked it to stop between
// steps. It is not a failure: the caller ends the run as canceled with
// the steps it took.
var ErrCanceled = errors.New("sim: run canceled")

// Run describes one run of an App through the step loop.
type Run struct {
	App   App
	Steps int
	// AdaptEvery > 0 adapts an Adapter solver every that many steps.
	AdaptEvery int
	// CheckpointEvery > 0 with a non-empty Base saves a checkpoint every
	// that many steps — after the step's adaptation, so the files always
	// hold a consistent (forest, fields, time) triple.
	CheckpointEvery int
	Base            string
	// OnStart, if set, runs on every rank once the solver exists, before
	// the first step; start is the step resumed from (0 on a fresh run).
	// OnStep, if set, runs on every rank after each completed step; saved
	// tells whether the step ended in a checkpoint. Either may stop the run
	// by returning an error (ErrCanceled to cancel); being collective, they
	// must return the same verdict on every rank.
	OnStart func(c *mpi.Comm, s Solver, start int64, resumed bool) error
	OnStep  func(c *mpi.Comm, s Solver, step int64, saved bool) error
}

// Result is rank 0's account of an attempt: the steps completed (also
// when a hook ended the attempt early), and for a finished run the final
// field hash and the world's fault counters.
type Result struct {
	Steps  int64
	Hash   uint64
	Faults mpi.FaultStats
}

// Rank is the rank body of one attempt: build the solver — resumed from
// Base when resume is set and a checkpoint exists there, else fresh —
// advance it to Steps, and hash the final state. Rank 0 fills res.
func (r Run) Rank(c *mpi.Comm, resume bool, res *Result) error {
	var s Solver
	var start int64
	resumed := resume && r.Base != "" && core.CheckpointExists(r.Base)
	if resumed {
		var err error
		if s, start, err = r.App.Resume(c, r.Base); err != nil {
			return err
		}
	} else {
		s = r.App.New(c)
	}
	if c.Rank() == 0 {
		res.Steps = start
	}
	if r.OnStart != nil {
		if err := r.OnStart(c, s, start, resumed); err != nil {
			return err
		}
	}
	done, err := r.Advance(c, s, start)
	if c.Rank() == 0 {
		res.Steps = done
	}
	if err != nil {
		return err
	}
	h := s.FieldHash()
	if c.Rank() == 0 {
		res.Hash, res.Faults = h, c.FaultStats()
	}
	return nil
}

// Advance is the step loop: it takes s from step start+1 through Steps
// (a fresh run passes start = 0, a resumed one the checkpoint's step) and
// returns the last step completed. Comm.CrashPoint is called at each step
// boundary so an injected rank crash fires between steps.
func (r Run) Advance(c *mpi.Comm, s Solver, start int64) (done int64, err error) {
	done = start
	ad, _ := s.(Adapter)
	dt := s.DT()
	for step := start + 1; step <= int64(r.Steps); step++ {
		c.CrashPoint(int(step))
		s.Step(dt)
		if ad != nil && r.AdaptEvery > 0 && step%int64(r.AdaptEvery) == 0 {
			if ad.Adapt() {
				dt = s.DT()
			}
		}
		saved := r.CheckpointEvery > 0 && r.Base != "" && step%int64(r.CheckpointEvery) == 0
		if saved {
			if err := s.SaveCheckpoint(r.Base, step); err != nil {
				return done, err
			}
			s.Metrics().Counter("checkpoint_saves").Add(1)
			s.Metrics().Gauge("checkpoint_last_step").Set(step)
		}
		done = step
		if r.OnStep != nil {
			if err := r.OnStep(c, s, step, saved); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}
