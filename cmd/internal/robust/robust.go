// Package robust is the robust mode shared by the cmd/advect and
// cmd/seismic drivers: -checkpoint switches a run to the runtime's
// checkpoint/restart loop with optional deterministic fault injection,
// demonstrating that a solver survives a transport gone bad and an
// injected rank crash — and still reproduces the fault-free run's field
// hash bitwise.
//
//	go run ./cmd/advect -checkpoint /tmp/adv -checkpoint-every 4 \
//	    -fault-drop 0.2 -fault-dup 0.2 -fault-reorder 0.2 \
//	    -crash-rank 1 -crash-step 9
package robust

import (
	"flag"
	"fmt"
	"path/filepath"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Flags holds the robust-mode command line.
type Flags struct {
	Base   string
	Every  int
	Resume bool
	Faults sim.Faults
}

// Register defines the robust-mode flags. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Base, "checkpoint", "", "checkpoint base path; enables the robust checkpoint/restart driver")
	flag.IntVar(&f.Every, "checkpoint-every", 4, "steps between checkpoints in robust mode")
	flag.BoolVar(&f.Resume, "resume", false, "resume from -checkpoint if one exists")
	flag.Int64Var(&f.Faults.Seed, "fault-seed", 1, "fault schedule seed")
	flag.Float64Var(&f.Faults.Drop, "fault-drop", 0, "P(a delivery attempt is transiently dropped)")
	flag.Float64Var(&f.Faults.Dup, "fault-dup", 0, "P(a message is delivered twice)")
	flag.Float64Var(&f.Faults.Delay, "fault-delay", 0, "P(a message gets extra latency)")
	flag.Float64Var(&f.Faults.Reorder, "fault-reorder", 0, "P(a message is held back so later traffic overtakes it)")
	flag.Float64Var(&f.Faults.Stall, "fault-stall", 0, "P(a send/recv call stalls its rank)")
	flag.IntVar(&f.Faults.CrashRank, "crash-rank", -1, "rank to crash in robust mode (-1 disables)")
	flag.IntVar(&f.Faults.CrashStep, "crash-step", 0, "step at which -crash-rank crashes")
	return f
}

// Run executes run (App, Steps and AdaptEvery set by the caller) on p
// ranks under the configured fault plan; if an injected crash takes the
// world down, it recovers by resuming from the last checkpoint. Every
// attempt runs under a ring tracer guarded by the flight recorder, so a
// crash leaves the last spans of every rank on disk next to the
// checkpoint files.
func (f *Flags) Run(p int, tel *telemetry.Driver, run sim.Run) error {
	run.Base, run.CheckpointEvery = f.Base, f.Every
	run.OnStart = func(c *mpi.Comm, s sim.Solver, start int64, resumed bool) error {
		if resumed && c.Rank() == 0 {
			fmt.Printf("resumed from %s at step %d (t=%.6f)\n", f.Base, start, s.SimTime())
		}
		tel.OnRank(tel.Command, c.Rank(), s.Metrics())
		return nil
	}
	plan := f.Faults.Plan()
	var res sim.Result
	err := sim.Restart{
		Ranks: p, Plan: plan, MaxRestarts: 1, Resume: f.Resume, Base: f.Base,
		OnCrash: func(err error, _, _ int) {
			fmt.Printf("crash detected: %v; restarting from last checkpoint\n", err)
		},
	}.Run(func(ranks int, plan *mpi.FaultPlan, resume bool) error {
		world, tr := tel.BeginRun(ranks, nil)
		if tr == nil {
			tr = trace.NewRing(ranks, telemetry.FlightWindow)
		}
		fr := telemetry.NewFlightRecorder(tr, filepath.Dir(f.Base))
		return fr.Guard(func() error {
			return mpi.RunErrOpt(ranks, mpi.RunOptions{Tracer: tr, Plan: plan, Metrics: world, Workers: tel.Workers()},
				func(c *mpi.Comm) error { return run.Rank(c, resume, &res) })
		})
	})
	if err != nil {
		return err
	}
	fmt.Printf("completed %d steps on %d ranks\n", run.Steps, p)
	fmt.Printf("final field hash: %#016x\n", res.Hash)
	if plan != nil {
		fs := res.Faults
		fmt.Printf("fault stats: drops=%d retries=%d dups=%d dedups=%d delays=%d reorders=%d stalls=%d\n",
			fs.Drops, fs.Retries, fs.Dups, fs.Dedups, fs.Delays, fs.Reorders, fs.Stalls)
	}
	return nil
}
