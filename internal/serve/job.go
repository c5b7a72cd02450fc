// Package serve turns the one-shot simulation drivers into a multi-tenant
// simulation service: a bounded job queue with admission control, a
// scheduler that runs every accepted job in its own mpi rank world
// (workers and rank count per job), periodic checkpoints into
// a per-job directory, automatic crash recovery that resumes a job on a
// *different* rank count (live migration on requeue — the
// rank-count-independent field checkpoint format makes the restore free),
// and streamed results: step progress over SSE, VTK frames, Chrome/
// Perfetto traces, and a per-job manifest.
//
// The package is the production face of the robustness (checkpoint/
// restart, fault injection) and observability (metrics, traces,
// manifests) subsystems: cmd/serve mounts the HTTP API, cmd/loadgen
// hammers it.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// JobType names the workloads the service runs.
const (
	TypeAdvect  = "advect"
	TypeSeismic = "seismic"
	TypeMantle  = "mantle"
)

// FaultSpec configures deterministic fault injection for a job — the same
// knobs as the CLI drivers' -fault-* flags; its crash_rank/crash_step are
// how the auto-restart and live migration paths are exercised end to end.
type FaultSpec = sim.Faults

// JobSpec is the submitted description of one simulation job. Zero fields
// take service defaults sized for many small concurrent runs, not for
// fidelity — a tenant that wants the paper-scale configuration says so.
type JobSpec struct {
	Type string `json:"type"`
	// Ranks is the world size of the job's first attempt (a crash-restart
	// may migrate it). Default 2.
	Ranks int `json:"ranks,omitempty"`
	// Workers is the per-rank kernel worker count. Default 1.
	Workers int `json:"workers,omitempty"`
	// Steps is the number of time steps (advect, seismic). Default 4.
	Steps int `json:"steps,omitempty"`
	// AdaptEvery is the advect adapt+repartition interval. Default 2.
	AdaptEvery int `json:"adapt_every,omitempty"`
	// Degree is the polynomial degree. Default 2.
	Degree int `json:"degree,omitempty"`
	// Level / MaxLevel are the initial and finest refinement levels.
	// Defaults 1 / 2.
	Level    int `json:"level,omitempty"`
	MaxLevel int `json:"max_level,omitempty"`
	// CheckpointEvery writes a checkpoint into the job directory every N
	// steps (advect, seismic). 0 disables checkpointing — and with it
	// crash recovery. Default 2.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// VTKEvery writes a VTK frame of the solution into the job directory
	// every N steps (advect only). 0 disables. Frames stream out through
	// GET /jobs/{id}/files/.
	VTKEvery int `json:"vtk_every,omitempty"`
	// MaxRestarts bounds crash-recovery attempts. Default 2.
	MaxRestarts int `json:"max_restarts,omitempty"`
	// Picard / SolAdapt configure mantle jobs. Defaults 1 / 1.
	Picard   int `json:"picard,omitempty"`
	SolAdapt int `json:"sol_adapt,omitempty"`

	Fault *FaultSpec `json:"fault,omitempty"`
	// Tag is an opaque client label echoed back in views and events.
	Tag string `json:"tag,omitempty"`
}

// withDefaults returns the spec with service defaults filled in.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Ranks == 0 {
		sp.Ranks = 2
	}
	if sp.Workers == 0 {
		sp.Workers = 1
	}
	if sp.Steps == 0 {
		sp.Steps = 4
	}
	if sp.AdaptEvery == 0 {
		sp.AdaptEvery = 2
	}
	if sp.Degree == 0 {
		sp.Degree = 2
	}
	if sp.Level == 0 {
		sp.Level = 1
	}
	if sp.MaxLevel == 0 {
		sp.MaxLevel = 2
	}
	if sp.CheckpointEvery == 0 {
		sp.CheckpointEvery = 2
	}
	if sp.MaxRestarts == 0 {
		sp.MaxRestarts = 2
	}
	if sp.Picard == 0 {
		sp.Picard = 1
	}
	if sp.SolAdapt == 0 {
		sp.SolAdapt = 1
	}
	// The cadence knobs default on; a negative value is the explicit
	// "off" spelling (0 means "use the default", so it can't be it).
	if sp.AdaptEvery < 0 {
		sp.AdaptEvery = 0
	}
	if sp.CheckpointEvery < 0 {
		sp.CheckpointEvery = 0
	}
	if sp.VTKEvery < 0 {
		sp.VTKEvery = 0
	}
	if sp.MaxRestarts < 0 {
		sp.MaxRestarts = 0
	}
	return sp
}

// maxJobRanks bounds a single job's world size: admission control must be
// able to reason about the service's total footprint.
const maxJobRanks = 64

// validate rejects specs the scheduler would choke on. Called after
// withDefaults.
func (sp JobSpec) validate() error {
	switch sp.Type {
	case TypeAdvect, TypeSeismic, TypeMantle:
	default:
		return fmt.Errorf("unknown job type %q (want %s|%s|%s)",
			sp.Type, TypeAdvect, TypeSeismic, TypeMantle)
	}
	if sp.Ranks < 1 || sp.Ranks > maxJobRanks {
		return fmt.Errorf("ranks %d out of range [1, %d]", sp.Ranks, maxJobRanks)
	}
	if sp.Workers < 1 || sp.Workers > 16 {
		return fmt.Errorf("workers %d out of range [1, 16]", sp.Workers)
	}
	if sp.Steps < 1 || sp.Steps > 100000 {
		return fmt.Errorf("steps %d out of range [1, 100000]", sp.Steps)
	}
	if sp.Degree < 1 || sp.Degree > 8 {
		return fmt.Errorf("degree %d out of range [1, 8]", sp.Degree)
	}
	if sp.Level < 0 || sp.MaxLevel > 6 || sp.Level > sp.MaxLevel {
		return fmt.Errorf("levels %d..%d out of range (max 6)", sp.Level, sp.MaxLevel)
	}
	if f := sp.Fault; f != nil && f.CrashRank >= sp.Ranks {
		return fmt.Errorf("crash_rank %d outside world of %d ranks", f.CrashRank, sp.Ranks)
	}
	if f := sp.Fault; f != nil && f.CrashRank >= 0 && sp.Type == TypeMantle {
		return fmt.Errorf("mantle jobs have no step boundaries; crash injection unsupported")
	}
	return nil
}

// ConfigMap renders the spec as the flat string map recorded in the
// per-job manifest — the explicit-config path of telemetry.NewManifestConfig
// (job manifests must never read the server process's flag set).
func (sp JobSpec) ConfigMap() map[string]string {
	m := map[string]string{
		"type":      sp.Type,
		"ranks":     fmt.Sprint(sp.Ranks),
		"workers":   fmt.Sprint(sp.Workers),
		"steps":     fmt.Sprint(sp.Steps),
		"degree":    fmt.Sprint(sp.Degree),
		"level":     fmt.Sprint(sp.Level),
		"max-level": fmt.Sprint(sp.MaxLevel),
	}
	if sp.Type == TypeAdvect {
		m["adapt-every"] = fmt.Sprint(sp.AdaptEvery)
	}
	if sp.Type != TypeMantle {
		m["checkpoint-every"] = fmt.Sprint(sp.CheckpointEvery)
	}
	if sp.Type == TypeMantle {
		m["picard"] = fmt.Sprint(sp.Picard)
		m["sol-adapt"] = fmt.Sprint(sp.SolAdapt)
	}
	if sp.Tag != "" {
		m["tag"] = sp.Tag
	}
	if f := sp.Fault; f != nil {
		m["fault-seed"] = fmt.Sprint(f.Seed)
		if f.CrashRank >= 0 {
			m["crash-rank"] = fmt.Sprint(f.CrashRank)
			m["crash-step"] = fmt.Sprint(f.CrashStep)
		}
	}
	return m
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry in a job's streamed event log.
type Event struct {
	Seq  int64          `json:"seq"`
	Time time.Time      `json:"time"`
	Type string         `json:"type"` // state|progress|checkpoint|crash|migrate|result
	Data map[string]any `json:"data,omitempty"`
}

// eventLog is an append-only broadcast log: writers append, any number of
// SSE subscribers replay from an index and block for more. Closed when
// the job reaches a terminal state, which ends every follower's stream.
// The broadcast is a closed-and-replaced wake channel so followers can
// select against their client's disconnect at the same time.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	closed bool
	wake   chan struct{}
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

func (l *eventLog) broadcastLocked() {
	close(l.wake)
	l.wake = make(chan struct{})
}

func (l *eventLog) append(typ string, data map[string]any) {
	l.mu.Lock()
	l.events = append(l.events, Event{
		Seq:  int64(len(l.events)),
		Time: time.Now(),
		Type: typ,
		Data: data,
	})
	l.broadcastLocked()
	l.mu.Unlock()
}

func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.broadcastLocked()
	l.mu.Unlock()
}

// next returns the event at index i, blocking until it exists, the log
// closes with no more events (the stream is over), or done closes (the
// subscriber left). ok=false ends the stream.
func (l *eventLog) next(i int, done <-chan struct{}) (Event, bool) {
	for {
		l.mu.Lock()
		if i < len(l.events) {
			ev := l.events[i]
			l.mu.Unlock()
			return ev, true
		}
		if l.closed {
			l.mu.Unlock()
			return Event{}, false
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-done:
			return Event{}, false
		}
	}
}

// len returns the current number of events.
func (l *eventLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Job is one accepted simulation job.
type Job struct {
	ID   string
	Spec JobSpec
	// Dir is the job's private directory: checkpoints, VTK frames,
	// traces, flight-recorder dumps, manifest.
	Dir string

	canceled atomic.Bool
	events   *eventLog

	mu        sync.Mutex
	state     State
	errText   string
	attempts  int   // worlds started (1 on a clean run)
	rankHist  []int // world size per attempt: migration is visible here
	fieldHash uint64
	hashValid bool
	result    map[string]float64
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// JobView is the JSON face of a Job.
type JobView struct {
	ID               string             `json:"id"`
	Type             string             `json:"type"`
	Tag              string             `json:"tag,omitempty"`
	State            State              `json:"state"`
	Error            string             `json:"error,omitempty"`
	Attempts         int                `json:"attempts"`
	RanksUsed        []int              `json:"ranks_used,omitempty"`
	FieldHash        string             `json:"field_hash,omitempty"`
	Result           map[string]float64 `json:"result,omitempty"`
	Submitted        time.Time          `json:"submitted"`
	Started          *time.Time         `json:"started,omitempty"`
	Finished         *time.Time         `json:"finished,omitempty"`
	QueueWaitSeconds float64            `json:"queue_wait_seconds,omitempty"`
	RunSeconds       float64            `json:"run_seconds,omitempty"`
	Events           int                `json:"events"`
	Spec             JobSpec            `json:"spec"`
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Type:      j.Spec.Type,
		Tag:       j.Spec.Tag,
		State:     j.state,
		Error:     j.errText,
		Attempts:  j.attempts,
		RanksUsed: append([]int(nil), j.rankHist...),
		Submitted: j.submitted,
		Events:    j.events.size(),
		Spec:      j.Spec,
	}
	if j.hashValid {
		v.FieldHash = fmt.Sprintf("%#016x", j.fieldHash)
	}
	if len(j.result) > 0 {
		v.Result = make(map[string]float64, len(j.result))
		for k, val := range j.result {
			v.Result[k] = val
		}
	}
	if !j.started.IsZero() {
		s := j.started
		v.Started = &s
		v.QueueWaitSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.finished.IsZero() {
		f := j.finished
		v.Finished = &f
		if !j.started.IsZero() {
			v.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// FieldHash returns the final collective field hash and whether one was
// recorded (advect and seismic jobs that ran to completion).
func (j *Job) FieldHash() (uint64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fieldHash, j.hashValid
}

// Attempts returns how many worlds the job has started, and the rank
// count each one ran on.
func (j *Job) Attempts() (int, []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts, append([]int(nil), j.rankHist...)
}

// Cancel requests cooperative cancellation: a queued job is dropped when
// it reaches a worker, a running job stops at its next step boundary.
func (j *Job) Cancel() {
	j.canceled.Store(true)
}

// setState transitions the job and logs the event. Terminal transitions
// close the event log.
func (j *Job) setState(s State, extra map[string]any) {
	j.mu.Lock()
	j.state = s
	switch s {
	case StateRunning:
		if j.started.IsZero() {
			j.started = time.Now()
		}
	case StateDone, StateFailed, StateCanceled:
		j.finished = time.Now()
	}
	j.mu.Unlock()
	data := map[string]any{"state": string(s)}
	for k, v := range extra {
		data[k] = v
	}
	j.events.append("state", data)
	if s.Terminal() {
		j.events.close()
	}
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.errText = err.Error()
	j.mu.Unlock()
	j.setState(StateFailed, map[string]any{"error": err.Error()})
}

// beginAttempt records one world start (rank count goes into the
// migration-visible history).
func (j *Job) beginAttempt(ranks int) int {
	j.mu.Lock()
	j.attempts++
	j.rankHist = append(j.rankHist, ranks)
	n := j.attempts
	j.mu.Unlock()
	return n
}
