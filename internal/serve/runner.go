package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/advect"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/rhea"
	"repro/internal/seismic"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtk"
)

// migrateRanks picks the world size for a restarted job: always different
// from the crashed attempt's — the restart is a live migration, and the
// rank-count-independent checkpoint format is what makes it free. Shrink
// when possible (the crash may have been resource pressure), grow a
// 1-rank world.
func migrateRanks(r int) int {
	if r > 1 {
		return r - 1
	}
	return r + 1
}

// runJob executes one job to success or final failure: the runtime's
// restart loop around single-world attempts, resuming from the job's last
// checkpoint on a migrated rank count whenever an injected crash takes a
// world down. On return the job directory holds its checkpoints, VTK
// frames, traces, flight-recorder dumps of crashed attempts, and a
// manifest.
func (s *Scheduler) runJob(j *Job) error {
	spec := j.Spec
	if err := os.MkdirAll(filepath.Join(j.Dir, "ckpt"), 0o755); err != nil {
		return err
	}

	// Per-job telemetry bucket: an unlistened Server used purely as the
	// merge point for the job's world + solver registries and its
	// attempt's tracer (the manifest's phase rows), so the job's
	// manifest reflects this job's run and nothing else. The scheduler's
	// own listener keeps serving the global view.
	jtel := telemetry.NewServer()
	manifest := telemetry.NewManifestConfig("serve/"+spec.Type, spec.ConfigMap())

	attemptNo := 0
	err := sim.Restart{
		Ranks: spec.Ranks, Plan: spec.Fault.Plan(), MaxRestarts: spec.MaxRestarts,
		Base: spec.checkpointBase(j.Dir), NextRanks: migrateRanks,
		OnCrash: func(err error, ranks, next int) {
			j.events.append("crash", map[string]any{
				"attempt": attemptNo, "ranks": ranks, "error": err.Error(),
			})
			j.events.append("migrate", map[string]any{
				"from_ranks": ranks, "to_ranks": next,
			})
			s.met.Counter("jobs_restarted").Add(1)
		},
	}.Run(func(ranks int, plan *mpi.FaultPlan, resume bool) error {
		attemptNo = j.beginAttempt(ranks)
		return s.attempt(j, jtel, attemptNo, ranks, plan, resume)
	})
	if err != nil {
		return err
	}

	manifest.Transport = mpi.DefaultTransport
	manifest.Workers = spec.Workers
	manifest.Finish(jtel)
	if err := manifest.WriteFile(filepath.Join(j.Dir, "manifest.json")); err != nil {
		return err
	}
	attempts, hist := j.Attempts()
	data := map[string]any{"attempts": attempts, "ranks_used": hist}
	if h, ok := j.FieldHash(); ok {
		data["field_hash"] = fmt.Sprintf("%#016x", h)
	}
	j.events.append("result", data)
	return nil
}

// checkpointBase is where the job's checkpoints go, "" for a job that
// writes none (mantle jobs, checkpointing switched off) and therefore has
// nothing to restart from.
func (sp JobSpec) checkpointBase(dir string) string {
	if sp.Type == TypeMantle || sp.CheckpointEvery <= 0 {
		return ""
	}
	return filepath.Join(dir, "ckpt", sp.Type)
}

// attempt runs one world of the job: build or resume the solver, step it
// with cancellation polling, periodic checkpoints, progress events, and
// VTK frames, all under a ring tracer guarded by the flight recorder (a
// crash leaves the last spans of every rank in the job directory). A
// panicking world is contained: the panic becomes this job's error, the
// server lives on.
func (s *Scheduler) attempt(j *Job, jtel *telemetry.Server, attemptNo, ranks int,
	plan *mpi.FaultPlan, resume bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: job %s attempt %d panicked: %v", j.ID, attemptNo, p)
		}
	}()

	// Each attempt replaces the job's telemetry sources wholesale: the
	// manifest should describe the attempt that produced the result, not a
	// blend including half-finished crashed worlds.
	jtel.ResetSources()
	world := metrics.NewSharded(ranks)
	jtel.RegisterWorld(world)
	tr := trace.NewRing(ranks, telemetry.FlightWindow)
	jtel.RegisterTracer(tr)
	fr := telemetry.NewFlightRecorder(tr, j.Dir)
	opts := mpi.RunOptions{
		Tracer: tr, Plan: plan, Metrics: world, Workers: j.Spec.Workers,
	}
	// err takes the run's outcome; the recorder only learns whether to dump.
	_ = fr.Guard(func() error {
		if j.Spec.Type == TypeMantle {
			err = s.runMantle(j, jtel, ranks, opts)
		} else {
			err = s.runSteps(j, jtel, attemptNo, ranks, opts, resume)
		}
		if errors.Is(err, sim.ErrCanceled) {
			return nil // not a crash: nothing for the flight recorder
		}
		return err
	})
	if err == nil {
		// The successful attempt's timeline is part of the streamed
		// results (open in Perfetto / chrome://tracing).
		if terr := tr.WriteChromeTraceFile(filepath.Join(j.Dir, "trace.json")); terr != nil {
			return terr
		}
	}
	return err
}

// checkCancel is the cooperative cancellation point at step boundaries:
// rank 0 reads the job's flag and every rank receives the same verdict, so
// the world unwinds collectively instead of deadlocking half-stopped.
func checkCancel(c *mpi.Comm, j *Job) error {
	stop := false
	if c.Rank() == 0 {
		stop = j.canceled.Load()
	}
	if mpi.Bcast(c, 0, stop) {
		return sim.ErrCanceled
	}
	return nil
}

// advectOpts maps a job spec onto the shell-advection solver.
func advectOpts(spec JobSpec) advect.Options {
	o := advect.DefaultOptions()
	o.Degree = spec.Degree
	o.Level = int8(spec.Level)
	o.MaxLevel = int8(spec.MaxLevel)
	return o
}

// seismicOpts maps a job spec onto the elastic-wave solver: the service
// defaults keep the wavelength-adapted earth mesh small (the frequency/
// PPW pair is fixed; the spec's MaxLevel caps refinement).
func seismicOpts(spec JobSpec) seismic.Options {
	o := seismic.DefaultOptions()
	o.Degree = spec.Degree
	o.MaxLevel = int8(spec.MaxLevel)
	o.MinLevel = int8(spec.Level)
	return o
}

// runSteps runs one world of a time-stepping job (advect, seismic)
// through the runtime's step loop. The hooks are the service's share:
// telemetry registration, cancellation polling before every step, and
// after each step the checkpoint, VTK-frame and progress events.
func (s *Scheduler) runSteps(j *Job, jtel *telemetry.Server, attemptNo, ranks int,
	ropts mpi.RunOptions, resume bool) error {
	spec := j.Spec
	app := advect.ShellApp(advectOpts(spec))
	if spec.Type == TypeSeismic {
		app = seismic.EarthApp(seismicOpts(spec))
	}
	run := sim.Run{
		App: app, Steps: spec.Steps, AdaptEvery: spec.AdaptEvery,
		CheckpointEvery: spec.CheckpointEvery, Base: spec.checkpointBase(j.Dir),
		OnStart: func(c *mpi.Comm, sol sim.Solver, _ int64, _ bool) error {
			jtel.Register(spec.Type, c.Rank(), sol.Metrics())
			return checkCancel(c, j)
		},
		OnStep: func(c *mpi.Comm, sol sim.Solver, step int64, saved bool) error {
			if saved && c.Rank() == 0 {
				j.events.append("checkpoint", map[string]any{"step": step})
			}
			if adv, ok := sol.(*advect.Solver); ok && spec.VTKEvery > 0 && step%int64(spec.VTKEvery) == 0 {
				if err := writeAdvectFrame(j, adv, step); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				j.events.append("progress", map[string]any{
					"step": step, "steps": spec.Steps, "sim_time": sol.SimTime(),
					"attempt": attemptNo, "ranks": ranks,
				})
			}
			if step == int64(spec.Steps) {
				return nil // finished: nothing left to cancel
			}
			return checkCancel(c, j)
		},
	}
	var res sim.Result
	err := mpi.RunErrOpt(ranks, ropts, func(c *mpi.Comm) error { return run.Rank(c, resume, &res) })
	j.mu.Lock()
	defer j.mu.Unlock()
	if err == nil {
		j.fieldHash, j.hashValid = res.Hash, true
	}
	if err == nil || errors.Is(err, sim.ErrCanceled) {
		j.result = map[string]float64{"steps": float64(res.Steps)}
	}
	return err
}

// writeAdvectFrame streams one VTK frame of the concentration field (cell
// averages) into the job directory. Collective.
func writeAdvectFrame(j *Job, sol *advect.Solver, step int64) error {
	vals := make([]float64, sol.Mesh.NumLocal)
	for e := 0; e < sol.Mesh.NumLocal; e++ {
		var sum float64
		for n := 0; n < sol.Mesh.Np; n++ {
			sum += sol.C[e*sol.Mesh.Np+n]
		}
		vals[e] = sum / float64(sol.Mesh.Np)
	}
	path := filepath.Join(j.Dir, fmt.Sprintf("frame-%04d.vtk", step))
	if err := vtk.WriteGathered(path, sol.F, vtk.CellField{Name: "C", Values: vals}); err != nil {
		return err
	}
	if sol.Comm.Rank() == 0 {
		j.events.append("frame", map[string]any{"step": step, "file": filepath.Base(path)})
	}
	return nil
}

// rheaOpts maps a job spec onto the mantle-convection model, shrunk to
// service scale.
func rheaOpts(spec JobSpec) rhea.Options {
	o := rhea.DefaultOptions()
	o.Level = int8(spec.Level)
	o.MaxLevel = int8(spec.MaxLevel)
	o.DataAdapt = 1
	o.SolAdapt = spec.SolAdapt
	o.Picard = spec.Picard
	return o
}

// runMantle runs the nonlinear Stokes solve. Mantle jobs have no step
// boundaries, so no checkpoints, cancellation points, or crash injection
// — the Report is the whole result.
func (s *Scheduler) runMantle(j *Job, jtel *telemetry.Server, ranks int,
	ropts mpi.RunOptions) error {
	spec := j.Spec
	opts := rheaOpts(spec)
	var rep rhea.Report
	err := mpi.RunErrOpt(ranks, ropts, func(c *mpi.Comm) error {
		if err := checkCancel(c, j); err != nil {
			return err
		}
		m := rhea.New(c, opts)
		jtel.Register("mantle", c.Rank(), m.Met)
		r := m.Run()
		if c.Rank() == 0 {
			rep = r
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.result = map[string]float64{
		"solve_seconds":  rep.SolveSec,
		"vcycle_seconds": rep.VcycleSec,
		"amr_seconds":    rep.AMRSec,
		"picard_iters":   float64(rep.PicardIters),
		"minres_iters":   float64(rep.MinresIters),
		"elements":       float64(rep.Elements),
		"unknowns":       float64(rep.Unknowns),
	}
	j.mu.Unlock()
	return nil
}
