package sim

import (
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Faults is the user-facing description of deterministic fault injection:
// the CLI drivers' -fault-*/-crash-* flags and the job server's "fault"
// spec (the JSON tags are the server's wire format). CrashRank/CrashStep
// inject a rank crash at a step boundary, which is how the restart loop
// is exercised end to end.
type Faults struct {
	Seed    int64   `json:"seed,omitempty"`
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Delay   float64 `json:"delay,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`
	Stall   float64 `json:"stall,omitempty"`
	// CrashRank < 0 disables the injected crash (the zero value of a
	// *present* spec therefore crashes rank 0 — set -1 explicitly for
	// drop/dup-only chaos).
	CrashRank int `json:"crash_rank"`
	CrashStep int `json:"crash_step,omitempty"`
}

// Plan assembles the runtime's schedule, or nil when f is nil or every
// knob is off — nil keeps the transport on its unmodified zero-overhead
// path.
func (f *Faults) Plan() *mpi.FaultPlan {
	if f == nil || (f.Drop == 0 && f.Dup == 0 && f.Delay == 0 &&
		f.Reorder == 0 && f.Stall == 0 && f.CrashRank < 0) {
		return nil
	}
	return &mpi.FaultPlan{
		Seed: f.Seed,
		Drop: f.Drop, Dup: f.Dup, Delay: f.Delay,
		Reorder: f.Reorder, Stall: f.Stall,
		MaxDelay: 200 * time.Microsecond, RetryTimeout: 100 * time.Microsecond,
		CrashRank: f.CrashRank, CrashStep: f.CrashStep,
	}
}

// Restart is the crash→resume policy around a run's attempts: when an
// injected crash takes a world down and a checkpoint exists, run again
// from it — with the crash disarmed (a restarted process would not crash
// again) and the rest of the chaos plan still active.
type Restart struct {
	Ranks       int            // world size of the first attempt
	Plan        *mpi.FaultPlan // nil: no fault injection
	MaxRestarts int
	Resume      bool   // let the first attempt resume from Base too
	Base        string // checkpoint base; "" makes every crash final
	// NextRanks picks a restarted attempt's world size from the crashed
	// one's (the checkpoint format is rank-count independent); nil keeps
	// it.
	NextRanks func(ranks int) int
	// OnCrash, if set, observes each recovery before the next attempt.
	OnCrash func(err error, ranks, next int)
}

// Run calls attempt until it succeeds, fails for good, or the restart
// budget is spent, and returns the last attempt's error. A crash with no
// checkpoint to resume from is final: replaying from scratch would
// converge with the crash disarmed, but that is a different run, not a
// recovery — fail honestly.
func (rs Restart) Run(attempt func(ranks int, plan *mpi.FaultPlan, resume bool) error) error {
	ranks, plan, resume := rs.Ranks, rs.Plan, rs.Resume
	for restarts := 0; ; restarts++ {
		err := attempt(ranks, plan, resume)
		if !mpi.IsInjectedCrash(err) || restarts >= rs.MaxRestarts ||
			rs.Base == "" || !core.CheckpointExists(rs.Base) {
			return err
		}
		next := ranks
		if rs.NextRanks != nil {
			next = rs.NextRanks(ranks)
		}
		if rs.OnCrash != nil {
			rs.OnCrash(err, ranks, next)
		}
		p := *plan
		p.CrashRank = -1
		ranks, plan, resume = next, &p, true
	}
}
