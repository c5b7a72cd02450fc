package sim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// fakeLog records what the runtime did to the fake solvers of one test
// case, from every rank.
type fakeLog struct {
	mu     sync.Mutex
	events []string
}

func (l *fakeLog) add(c *mpi.Comm, format string, args ...any) {
	if c.Rank() != 0 {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// fakeSolver is a recording stepper: its state is the step count, its
// checkpoint the two files core.CheckpointExists looks for with the step
// in the second.
type fakeSolver struct {
	c    *mpi.Comm
	log  *fakeLog
	step int64
	met  *metrics.Registry
}

func (f *fakeSolver) DT() float64                { return 0.5 }
func (f *fakeSolver) SimTime() float64           { return 0.5 * float64(f.step) }
func (f *fakeSolver) FieldHash() uint64          { return uint64(1000 + f.step) }
func (f *fakeSolver) Metrics() *metrics.Registry { return f.met }

// Step synchronizes the ranks like a real step's exchanges do, so no rank
// runs ahead of a crashing peer.
func (f *fakeSolver) Step(dt float64) {
	f.c.Barrier()
	f.step++
	f.log.add(f.c, "step %d", f.step)
}

func (f *fakeSolver) SaveCheckpoint(base string, step int64) error {
	var err error
	if f.c.Rank() == 0 {
		if err = os.WriteFile(base+".forest", nil, 0o644); err == nil {
			err = os.WriteFile(base+".fields", []byte(fmt.Sprint(step)), 0o644)
		}
	}
	f.log.add(f.c, "save %d", step)
	return mpi.BcastErr(f.c, err)
}

func fakeApp(log *fakeLog) sim.App {
	return sim.App{
		New: func(c *mpi.Comm) sim.Solver {
			log.add(c, "new on %d", c.Size())
			return &fakeSolver{c: c, log: log, met: metrics.NewRegistry()}
		},
		Resume: func(c *mpi.Comm, base string) (sim.Solver, int64, error) {
			b, err := os.ReadFile(base + ".fields")
			if err != nil {
				return nil, 0, err
			}
			var step int64
			if _, err := fmt.Sscan(string(b), &step); err != nil {
				return nil, 0, err
			}
			log.add(c, "resume on %d at %d", c.Size(), step)
			return &fakeSolver{c: c, log: log, step: step, met: metrics.NewRegistry()}, step, nil
		},
	}
}

// TestRestartLoop drives the step loop and the restart loop together on
// recording fake solvers in real rank worlds.
func TestRestartLoop(t *testing.T) {
	shrink := func(r int) int { return r - 1 }
	cases := []struct {
		name        string
		crashStep   int // 0: no crash
		every       int // checkpoint cadence
		maxRestarts int
		next        func(int) int
		cancelAt    int64 // OnStep cancels after this step; 0: never
		wantRanks   []int // world size of each attempt
		wantResume  int64 // step the last attempt resumed at; -1: fresh
		wantSteps   int64
		wantErr     func(error) bool
	}{
		{name: "no crash", every: 2, maxRestarts: 1,
			wantRanks: []int{3}, wantResume: -1, wantSteps: 6},
		{name: "crash at 5, cadence 2, same ranks", crashStep: 5, every: 2, maxRestarts: 1,
			wantRanks: []int{3, 3}, wantResume: 4, wantSteps: 6},
		{name: "crash at 5, cadence 3, migrate", crashStep: 5, every: 3, maxRestarts: 2, next: shrink,
			wantRanks: []int{3, 2}, wantResume: 3, wantSteps: 6},
		{name: "crash before the first checkpoint fails honestly", crashStep: 2, every: 4, maxRestarts: 2,
			wantRanks: []int{3}, wantResume: -1, wantErr: mpi.IsInjectedCrash},
		{name: "no restart budget", crashStep: 5, every: 2, maxRestarts: 0,
			wantRanks: []int{3}, wantResume: -1, wantErr: mpi.IsInjectedCrash},
		{name: "cancel between steps", every: 2, maxRestarts: 1, cancelAt: 3,
			wantRanks: []int{3}, wantResume: -1, wantSteps: 3,
			wantErr: func(err error) bool { return errors.Is(err, sim.ErrCanceled) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "ckpt")
			log := &fakeLog{}
			resumedAt := int64(-1)
			run := sim.Run{
				App: fakeApp(log), Steps: 6, CheckpointEvery: tc.every, Base: base,
				OnStart: func(c *mpi.Comm, _ sim.Solver, start int64, resumed bool) error {
					if resumed && c.Rank() == 0 {
						resumedAt = start
					}
					return nil
				},
				OnStep: func(_ *mpi.Comm, _ sim.Solver, step int64, _ bool) error {
					if step == tc.cancelAt {
						return sim.ErrCanceled
					}
					return nil
				},
			}
			faults := sim.Faults{Seed: 7, Drop: 0.1, Dup: 0.1, CrashRank: -1}
			if tc.crashStep > 0 {
				faults.CrashRank, faults.CrashStep = 1, tc.crashStep
			}
			var res sim.Result
			var ranksUsed []int
			var plans []mpi.FaultPlan
			err := sim.Restart{
				Ranks: 3, Plan: faults.Plan(), MaxRestarts: tc.maxRestarts, Base: base, NextRanks: tc.next,
			}.Run(func(ranks int, plan *mpi.FaultPlan, resume bool) error {
				ranksUsed = append(ranksUsed, ranks)
				plans = append(plans, *plan)
				return mpi.RunErrOpt(ranks, mpi.RunOptions{Plan: plan},
					func(c *mpi.Comm) error { return run.Rank(c, resume, &res) })
			})
			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !tc.wantErr(err) {
				t.Fatalf("err = %v", err)
			}
			if !reflect.DeepEqual(ranksUsed, tc.wantRanks) {
				t.Errorf("attempts ran on %v ranks, want %v\nlog: %v", ranksUsed, tc.wantRanks, log.events)
			}
			if resumedAt != tc.wantResume {
				t.Errorf("resumed at %d, want %d\nlog: %v", resumedAt, tc.wantResume, log.events)
			}
			if !mpi.IsInjectedCrash(err) && res.Steps != tc.wantSteps {
				t.Errorf("steps = %d, want %d\nlog: %v", res.Steps, tc.wantSteps, log.events)
			}
			if wantHash := uint64(1006); tc.wantErr == nil && res.Hash != wantHash {
				t.Errorf("hash = %d, want %d", res.Hash, wantHash)
			}
			if tc.wantErr != nil && res.Hash != 0 {
				t.Errorf("unfinished run reported hash %d", res.Hash)
			}
			// A restarted attempt keeps the chaos, not the crash.
			for i, p := range plans {
				wantCrash := faults.CrashRank
				if i > 0 {
					wantCrash = -1
				}
				if p.CrashRank != wantCrash || p.Drop != 0.1 || p.Dup != 0.1 || p.Seed != 7 {
					t.Errorf("attempt %d ran under plan %+v", i, p)
				}
			}
		})
	}
}

// TestRestartBudget pins the MaxRestarts bound with an attempt that
// crashes every time (a real world cannot: the crash is disarmed after the
// first restart).
func TestRestartBudget(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ckpt")
	for _, ext := range []string{".forest", ".fields"} {
		if err := os.WriteFile(base+ext, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	faults := sim.Faults{CrashRank: 0, CrashStep: 1}
	var resumes []bool
	err := sim.Restart{Ranks: 2, Plan: faults.Plan(), MaxRestarts: 2, Base: base}.Run(
		func(_ int, _ *mpi.FaultPlan, resume bool) error {
			resumes = append(resumes, resume)
			return &mpi.CrashError{Rank: 0, Step: 1}
		})
	if !mpi.IsInjectedCrash(err) {
		t.Errorf("err = %v, want the last crash", err)
	}
	if want := []bool{false, true, true}; !reflect.DeepEqual(resumes, want) {
		t.Errorf("attempts resumed %v, want %v (one run + MaxRestarts)", resumes, want)
	}
}

// TestFaultsPlan pins the one FaultPlan constructor: nothing switched on
// means no plan at all (the transport's zero-overhead path).
func TestFaultsPlan(t *testing.T) {
	var none *sim.Faults
	if none.Plan() != nil || (&sim.Faults{Seed: 3, CrashRank: -1}).Plan() != nil {
		t.Error("an all-off fault description produced a plan")
	}
	p := (&sim.Faults{Seed: 3, Reorder: 0.5, CrashRank: 2, CrashStep: 9}).Plan()
	if p == nil || p.Seed != 3 || p.Reorder != 0.5 || p.CrashRank != 2 || p.CrashStep != 9 ||
		p.MaxDelay == 0 || p.RetryTimeout == 0 {
		t.Errorf("plan = %+v", p)
	}
	if (&sim.Faults{}).Plan() == nil {
		t.Error("the zero value of a present spec crashes rank 0 and needs a plan")
	}
}
