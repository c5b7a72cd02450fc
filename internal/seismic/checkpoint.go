package seismic

import (
	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Checkpoint/restart: the solver's share of a checkpoint (see
// core.SaveCheckpoint) is Q, the NC velocity-strain fields per node, plus
// step and time. Mesh, materials, maxVp and dt are rebuilt from the
// restored forest, the options and the material model.

// SaveCheckpoint writes the solver state at step to base+".forest" and
// base+".fields". Collective; all ranks return the same error.
func (s *Solver) SaveCheckpoint(base string, step int64) error {
	return s.F.SaveCheckpoint(base, s.Mesh.Np*NC, core.FieldMeta{Step: step, Time: s.Time}, s.Q)
}

// Resume restores a solver from the checkpoint at base and returns it
// with the step the checkpoint was taken at. What the checkpoint does not
// hold is passed in and must match the original run: the connectivity,
// the options, the material model and the source (nil for none). Any rank
// count works.
func Resume(comm *mpi.Comm, conn *connectivity.Conn, opts Options,
	matFn func(p [3]float64) Material, source func(t float64, p [3]float64) [3]float64,
	base string) (*Solver, int64, error) {
	np1 := opts.Degree + 1
	f, data, meta, err := core.LoadCheckpoint(comm, conn, base, np1*np1*np1*NC)
	if err != nil {
		return nil, 0, err
	}
	s := NewSolver(comm, f, opts, matFn)
	copy(s.Q, data)
	s.Time, s.Source = meta.Time, source
	return s, meta.Step, nil
}

// FieldHash returns the collective bitwise fingerprint of the solver
// state (all NC fields in global curve order plus the simulation time),
// identical on every rank.
func (s *Solver) FieldHash() uint64 {
	return core.HashFields(s.Comm, s.Time, s.Q)
}

// SimTime and Metrics complete the runtime's sim.Solver interface.
func (s *Solver) SimTime() float64           { return s.Time }
func (s *Solver) Metrics() *metrics.Registry { return s.Met }

// EarthConn returns the macro-connectivity BuildEarthForest meshes (the
// cubed ball, inner cube ending well inside the outer core), which a
// checkpoint resume of an earth run must pass to Resume.
func EarthConn() *connectivity.Conn {
	return connectivity.Ball(0.35, 1.0)
}
