package advect

import (
	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Checkpoint/restart: the solver's share of a checkpoint (see
// core.SaveCheckpoint) is the solution C, one value per node, plus step
// and time. Mesh geometry, contravariant velocities and dt are rebuilt
// from the restored forest and the options.

// SaveCheckpoint writes the solver state at step to base+".forest" and
// base+".fields". Collective; all ranks return the same error.
func (s *Solver) SaveCheckpoint(base string, step int64) error {
	return s.F.SaveCheckpoint(base, s.Mesh.Np, core.FieldMeta{Step: step, Time: s.Time}, s.C)
}

// ResumeShell restores a shell solver from a checkpoint base; see
// ResumeCustom.
func ResumeShell(comm *mpi.Comm, opts Options, base string) (*Solver, int64, error) {
	return ResumeCustom(comm, connectivity.Shell(0.55, 1.0), opts, nil, nil, base)
}

// ShellApp is the runtime's handle on the §III.B shell run the drivers
// and the job server execute.
func ShellApp(opts Options) sim.App {
	return sim.App{
		New: func(c *mpi.Comm) sim.Solver { return NewShell(c, opts) },
		Resume: func(c *mpi.Comm, base string) (sim.Solver, int64, error) {
			return ResumeShell(c, opts, base)
		},
	}
}

// ResumeCustom restores a solver from the checkpoint at base onto the
// given connectivity (which must match the one used at save time) and
// returns it along with the step the checkpoint was taken at. The
// options, velocity, and initial-condition fields must equal the original
// run's. Any rank count works.
func ResumeCustom(comm *mpi.Comm, conn *connectivity.Conn, opts Options,
	vel func(x, y, z float64) (float64, float64, float64),
	ic func(x, y, z float64) float64, base string) (*Solver, int64, error) {
	s := newSolver(comm, conn, opts, vel, ic)
	np1 := opts.Degree + 1
	f, data, meta, err := core.LoadCheckpoint(comm, conn, base, np1*np1*np1)
	if err != nil {
		return nil, 0, err
	}
	s.F, s.C, s.Time = f, data, meta.Time
	s.rebuild()
	return s, meta.Step, nil
}

// FieldHash returns the collective bitwise fingerprint of the solver
// state (solution values in global curve order plus the simulation time),
// identical on every rank.
func (s *Solver) FieldHash() uint64 {
	return core.HashFields(s.Comm, s.Time, s.C)
}

// SimTime and Metrics complete the runtime's sim.Solver interface.
func (s *Solver) SimTime() float64           { return s.Time }
func (s *Solver) Metrics() *metrics.Registry { return s.Met }
