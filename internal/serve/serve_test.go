package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/advect"
	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// newTestScheduler builds a scheduler rooted in a test temp dir.
func newTestScheduler(t *testing.T, cfg Config, tel *telemetry.Server) *Scheduler {
	t.Helper()
	cfg.DataDir = t.TempDir()
	s, err := NewScheduler(cfg, tel)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitTerminal polls a job to its terminal state.
func waitTerminal(t *testing.T, j *Job, d time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if st := j.State(); st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (state %s)", j.ID, d, j.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestScheduler(t, Config{MaxActive: 1}, nil)
	defer s.Drain()
	bad := []JobSpec{
		{Type: "warp-drive"},
		{Type: TypeAdvect, Ranks: maxJobRanks + 1},
		{Type: TypeAdvect, Degree: 99},
		{Type: TypeAdvect, Level: 5, MaxLevel: 2},
		{Type: TypeAdvect, Ranks: 2, Fault: &FaultSpec{CrashRank: 7}},
		{Type: TypeMantle, Fault: &FaultSpec{CrashRank: 0, CrashStep: 1}},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %d accepted, want validation error", i)
		}
	}
}

// TestJobLifecycle runs one small advect job to completion and checks the
// streamed artifacts: events in order, checkpoint + VTK + trace +
// manifest files in the job directory, a recorded field hash.
func TestJobLifecycle(t *testing.T) {
	tel := telemetry.NewServer()
	s := newTestScheduler(t, Config{MaxActive: 2}, tel)
	j, err := s.Submit(JobSpec{
		Type: TypeAdvect, Ranks: 2, Steps: 4,
		CheckpointEvery: 2, VTKEvery: 2, Tag: "lifecycle",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, time.Minute); st != StateDone {
		t.Fatalf("state = %s, want done: %s", st, j.View().Error)
	}
	s.Drain()

	if _, ok := j.FieldHash(); !ok {
		t.Error("no field hash recorded")
	}
	if n, hist := j.Attempts(); n != 1 || len(hist) != 1 || hist[0] != 2 {
		t.Errorf("attempts = %d %v, want 1 [2]", n, hist)
	}

	// Event log: queued -> running -> progress/checkpoint/frame -> result
	// -> done, with a progress event per step.
	var types []string
	progress := 0
	for i := 0; ; i++ {
		ev, ok := j.events.next(i, nil)
		if !ok {
			break
		}
		types = append(types, ev.Type)
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress != 4 {
		t.Errorf("progress events = %d, want 4 (one per step): %v", progress, types)
	}
	for _, want := range []string{"checkpoint", "frame", "result"} {
		found := false
		for _, ty := range types {
			if ty == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q event in %v", want, types)
		}
	}

	// Artifacts on disk.
	for _, f := range []string{"manifest.json", "trace.json", "frame-0002.vtk",
		"ckpt/advect.forest", "ckpt/advect.fields"} {
		if !fileExists(t, j, f) {
			t.Errorf("missing artifact %s", f)
		}
	}

	// The manifest is the job's, not the host process's: config from the
	// spec, solver + mpi phases present.
	var m telemetry.Manifest
	readJobJSON(t, j, "manifest.json", &m)
	if m.Command != "serve/advect" || m.Config["tag"] != "lifecycle" {
		t.Errorf("manifest command/config = %q/%v", m.Command, m.Config)
	}
	if m.Ranks != 2 {
		t.Errorf("manifest ranks = %d, want 2", m.Ranks)
	}
	if len(m.Phases) == 0 {
		t.Error("manifest has no phases (job registries not gathered)")
	}

	// Scheduler metrics flowed into the shared telemetry view.
	snap := tel.Gather()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "jobs_completed" && c.Total >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("jobs_completed not visible in telemetry gather")
	}
}

// TestJobManifestPhases: a job's manifest carries the phase summaries of
// its attempt's tracer, read from the span store's running aggregates.
func TestJobManifestPhases(t *testing.T) {
	s := newTestScheduler(t, Config{MaxActive: 1}, nil)
	j, err := s.Submit(JobSpec{Type: TypeAdvect, Ranks: 2, Steps: 2, AdaptEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, time.Minute); st != StateDone {
		t.Fatalf("state = %s, want done: %s", st, j.View().Error)
	}
	s.Drain()
	var m telemetry.Manifest
	readJobJSON(t, j, "manifest.json", &m)
	for _, want := range []string{"phase_solve", "phase_adapt"} {
		i := slices.IndexFunc(m.Phases, func(p telemetry.PhaseSummary) bool { return p.Name == want })
		if i < 0 {
			t.Errorf("manifest lacks %s: %+v", want, m.Phases)
			continue
		}
		if p := m.Phases[i]; p.Count == 0 || len(p.PerRank) != 2 {
			t.Errorf("%s summary %+v, want spans from both ranks", want, p)
		}
	}
}

func fileExists(t *testing.T, j *Job, rel string) bool {
	t.Helper()
	_, err := readJobFile(j, rel)
	return err == nil
}

// TestAdmissionControl fills the queue behind one long-running job and
// checks the overflow submit is rejected with ErrQueueFull — then cancels
// everything and drains.
func TestAdmissionControl(t *testing.T) {
	s := newTestScheduler(t, Config{MaxActive: 1, MaxQueue: 2}, nil)
	long, err := s.Submit(JobSpec{
		Type: TypeAdvect, Ranks: 2, Steps: 100000,
		AdaptEvery: -1, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to take it so the queue is empty.
	deadline := time.Now().Add(30 * time.Second)
	for long.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobSpec{Type: TypeAdvect, Ranks: 1, Steps: 1})
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := s.Submit(JobSpec{Type: TypeAdvect, Ranks: 1, Steps: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	// Cooperative cancel: the running world stops at its next step
	// boundary; queued jobs are dropped by the worker.
	long.Cancel()
	for _, j := range queued {
		j.Cancel()
	}
	s.Drain()
	if st := long.State(); st != StateCanceled {
		t.Errorf("long job state = %s, want canceled", st)
	}
	for i, j := range queued {
		if st := j.State(); st != StateCanceled {
			t.Errorf("queued job %d state = %s, want canceled", i, st)
		}
	}
	if _, err := s.Submit(JobSpec{Type: TypeAdvect, Ranks: 1, Steps: 1}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
}

// TestCrashRestartMigratesAndMatches is the end-to-end acceptance test:
// a job submitted over HTTP with an injected rank crash at step 5
// auto-restarts from its last checkpoint on a *different* rank count
// (live migration) and still produces the uninterrupted run's field hash
// bitwise.
func TestCrashRestartMigratesAndMatches(t *testing.T) {
	const (
		ranks      = 3
		steps      = 6
		adaptEvery = 2
		ckptEvery  = 2
	)

	// Uninterrupted reference on a different rank count than either of
	// the service's attempts — the hash is rank-count independent.
	spec := JobSpec{
		Type: TypeAdvect, Ranks: ranks, Steps: steps,
		AdaptEvery: adaptEvery, CheckpointEvery: ckptEvery,
		Fault: &FaultSpec{Seed: 9, Drop: 0.1, Dup: 0.1, CrashRank: 1, CrashStep: 5},
	}
	var want uint64
	mpi.Run(4, func(c *mpi.Comm) {
		sol := advect.NewShell(c, advectOpts(spec.withDefaults()))
		if _, err := (sim.Run{Steps: steps, AdaptEvery: adaptEvery}).Advance(c, sol, 0); err != nil {
			t.Errorf("reference: %v", err)
		}
		if h := sol.FieldHash(); c.Rank() == 0 {
			want = h
		}
	})

	tel := telemetry.NewServer()
	s := newTestScheduler(t, Config{MaxActive: 2}, tel)
	ts := httptest.NewServer(NewHandler(s, tel))
	defer ts.Close()

	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	j := s.Job(view.ID)
	if j == nil {
		t.Fatalf("no job %s", view.ID)
	}
	if st := waitTerminal(t, j, 2*time.Minute); st != StateDone {
		t.Fatalf("state = %s, want done: %s", st, j.View().Error)
	}
	s.Drain()

	// The crash triggered exactly one restart, onto a different world
	// size.
	n, hist := j.Attempts()
	if n != 2 || len(hist) != 2 {
		t.Fatalf("attempts = %d %v, want 2", n, hist)
	}
	if hist[0] != ranks || hist[1] == ranks {
		t.Errorf("rank history = %v, want [%d, !=%d] (migration)", hist, ranks, ranks)
	}

	// Bitwise-identical final state.
	got, ok := j.FieldHash()
	if !ok {
		t.Fatal("no field hash")
	}
	if got != want {
		t.Errorf("migrated run hash %#x, want %#x", got, want)
	}

	// The crash and migration are visible in the event stream.
	sawCrash, sawMigrate := false, false
	for i := 0; ; i++ {
		ev, ok := j.events.next(i, nil)
		if !ok {
			break
		}
		switch ev.Type {
		case "crash":
			sawCrash = true
		case "migrate":
			sawMigrate = true
			if from, to := ev.Data["from_ranks"], ev.Data["to_ranks"]; from == to {
				t.Errorf("migrate event from==to: %v", ev.Data)
			}
		}
	}
	if !sawCrash || !sawMigrate {
		t.Errorf("crash/migrate events = %v/%v, want both", sawCrash, sawMigrate)
	}

	// The scheduler counted the restart; the crashed attempt left a
	// flight-recorder dump next to the checkpoint.
	if s.Metrics().Count("jobs_restarted") != 1 {
		t.Errorf("jobs_restarted = %d, want 1", s.Metrics().Count("jobs_restarted"))
	}
	if !fileExists(t, j, "flight-error.trace.json") {
		t.Error("crashed attempt left no flight-recorder dump")
	}
}

// TestMantleJob runs the third tenant type end to end: no step loop, no
// checkpoints — the Stokes report is the result.
func TestMantleJob(t *testing.T) {
	if testing.Short() {
		t.Skip("mantle solve in -short")
	}
	s := newTestScheduler(t, Config{MaxActive: 1}, nil)
	j, err := s.Submit(JobSpec{Type: TypeMantle, Ranks: 2, Level: 1, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 3*time.Minute); st != StateDone {
		t.Fatalf("state = %s, want done: %s", st, j.View().Error)
	}
	s.Drain()
	v := j.View()
	if v.Result["elements"] <= 0 || v.Result["unknowns"] <= 0 {
		t.Errorf("mantle result missing problem size: %v", v.Result)
	}
	if v.Result["picard_iters"] < 1 {
		t.Errorf("mantle result picard_iters = %v, want >= 1", v.Result["picard_iters"])
	}
}

// TestSeismicJobCheckpointRestart exercises the second solver type
// through the same crash-migrate path.
func TestSeismicJobCheckpointRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("seismic earth run in -short")
	}
	spec := JobSpec{
		Type: TypeSeismic, Ranks: 2, Steps: 4,
		MaxLevel: 2, CheckpointEvery: 2,
		Fault: &FaultSpec{Seed: 3, CrashRank: 0, CrashStep: 3},
	}
	s := newTestScheduler(t, Config{MaxActive: 1}, nil)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 3*time.Minute); st != StateDone {
		t.Fatalf("state = %s, want done: %s", st, j.View().Error)
	}
	s.Drain()
	n, hist := j.Attempts()
	if n != 2 || hist[1] == hist[0] {
		t.Fatalf("attempts = %d %v, want 2 with migration", n, hist)
	}

	// The migrated run must match a clean service run of the same spec
	// (fresh scheduler, no faults).
	clean := spec
	clean.Fault = nil
	s2 := newTestScheduler(t, Config{MaxActive: 1}, nil)
	j2, err := s2.Submit(clean)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2, 3*time.Minute); st != StateDone {
		t.Fatalf("clean state = %s: %s", st, j2.View().Error)
	}
	s2.Drain()
	h1, ok1 := j.FieldHash()
	h2, ok2 := j2.FieldHash()
	if !ok1 || !ok2 {
		t.Fatal("missing hashes")
	}
	if h1 != h2 {
		t.Errorf("migrated seismic hash %#x, clean %#x", h1, h2)
	}
}

// TestResumeFromCorruptCheckpointFails plants a checkpoint whose forest
// file is corrupt in the last rank's slice, then crashes the job at its
// first step so the restart resumes from it on two ranks. Every rank must
// see the load fail: the job ends failed (and frees its MaxActive slot)
// instead of hanging with one rank gone and the other in a collective.
func TestResumeFromCorruptCheckpointFails(t *testing.T) {
	s := newTestScheduler(t, Config{MaxActive: 1}, nil)
	defer s.Drain()
	ckpt := filepath.Join(s.DataDir(), "j000001", "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	forest := filepath.Join(ckpt, "advect.forest")
	mpi.Run(1, func(c *mpi.Comm) {
		if err := core.New(c, connectivity.Shell(0.55, 1.0), 1).Save(forest); err != nil {
			t.Error(err)
		}
	})
	b, err := os.ReadFile(forest)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], 127) // last record's level
	if err := os.WriteFile(forest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "advect.fields"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := s.Submit(JobSpec{
		Type: TypeAdvect, Ranks: 3, Steps: 4, CheckpointEvery: 100,
		Fault: &FaultSpec{CrashRank: 0, CrashStep: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j000001" {
		t.Fatalf("job id %s: the checkpoint was planted for j000001", j.ID)
	}
	if st := waitTerminal(t, j, time.Minute); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if n, hist := j.Attempts(); n != 2 || hist[1] != 2 {
		t.Errorf("attempts = %d %v, want the resume attempt on 2 ranks", n, hist)
	}
	if msg := j.View().Error; !strings.Contains(msg, "level 127") {
		t.Errorf("error = %q, want the loader's", msg)
	}
}

// TestConfigMapPerJob pins satellite 1's fix at the service layer: two
// jobs' manifests must carry their own specs, not the host flag set or
// each other's.
func TestConfigMapPerJob(t *testing.T) {
	a := JobSpec{Type: TypeAdvect, Steps: 3, Tag: "job-a"}.withDefaults()
	b := JobSpec{Type: TypeSeismic, Steps: 7, Tag: "job-b"}.withDefaults()
	ca, cb := a.ConfigMap(), b.ConfigMap()
	if ca["tag"] != "job-a" || cb["tag"] != "job-b" {
		t.Errorf("tags = %q/%q", ca["tag"], cb["tag"])
	}
	if ca["steps"] == cb["steps"] {
		t.Errorf("steps collide: %q", ca["steps"])
	}
	if _, ok := ca["max-active"]; ok {
		t.Error("server flag leaked into job config")
	}
}

func readJobFile(j *Job, rel string) ([]byte, error) {
	return os.ReadFile(filepath.Join(j.Dir, filepath.FromSlash(rel)))
}

func readJobJSON(t *testing.T, j *Job, rel string, v any) {
	t.Helper()
	b, err := readJobFile(j, rel)
	if err != nil {
		t.Fatalf("read %s: %v", rel, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", rel, err)
	}
}
