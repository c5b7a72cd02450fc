package telemetry

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func TestManifestFromSnapshot(t *testing.T) {
	reg := metrics.NewSharded(2)
	h := reg.Histogram("phase_balance", metrics.UnitDuration)
	h.ObserveShard(0, 1000)
	h.ObserveShard(0, 3000)
	h.ObserveShard(1, 9000)
	reg.Counter("mpi_msgs_sent").AddShard(0, 11)
	reg.Counter("fault_drops").AddShard(1, 2)
	reg.Gauge("step").SetShard(0, 40)
	reg.Gauge("step").SetShard(1, 38)

	s := NewServer()
	s.RegisterWorld(reg)
	m := NewManifest("advect")
	m.Finish(s)

	if m.Ranks != 2 || m.WallSeconds < 0 {
		t.Fatalf("manifest header: %+v", m)
	}
	if len(m.Phases) != 1 || m.Phases[0].Name != "phase_balance" {
		t.Fatalf("phases: %+v", m.Phases)
	}
	ph := m.Phases[0]
	if ph.Count != 3 || ph.TotalSeconds != 13000e-9 || ph.MaxSeconds <= 0 {
		t.Fatalf("phase summary: %+v", ph)
	}
	// rank sums 4000 and 9000 → imbalance 9000/6500.
	wantImb := 9000.0 / 6500.0
	if d := ph.Imbalance - wantImb; d > 1e-9 || d < -1e-9 {
		t.Fatalf("imbalance = %v, want %v", ph.Imbalance, wantImb)
	}
	if m.Counters["mpi_msgs_sent"] != 11 {
		t.Fatalf("counters: %v", m.Counters)
	}
	if m.Faults["fault_drops"] != 2 {
		t.Fatalf("faults: %v", m.Faults)
	}
	if m.Gauges["step"] != 38 {
		t.Fatalf("gauges keep the slowest rank: %v", m.Gauges)
	}

	// Round-trip through disk.
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if back.Command != "advect" || len(back.Phases) != len(m.Phases) || back.Counters["mpi_msgs_sent"] != 11 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestImbalanceCountsIdleRanks: a phase recorded on one rank of two reads
// max/avg = 2.0 both in the trace report and in the manifest fed by the
// same spans — the rank that never ran the phase counts as zero in both.
func TestImbalanceCountsIdleRanks(t *testing.T) {
	tr := trace.New(2)
	tr.Rank(0).AddCompleted("balance", trace.CatPhase, time.Now(), 3*time.Millisecond)

	var fromTrace float64
	for _, st := range tr.Aggregate() {
		if st.Name == "balance" {
			fromTrace = st.Imbalance
		}
	}
	s := NewServer()
	s.RegisterTracer(tr)
	m := NewManifest("forest")
	m.Finish(s)
	if len(m.Phases) != 1 || m.Phases[0].Name != "phase_balance" {
		t.Fatalf("phases: %+v", m.Phases)
	}
	if fromTrace != 2 || m.Phases[0].Imbalance != 2 {
		t.Fatalf("imbalance: trace report %v, manifest %v; want 2 and 2", fromTrace, m.Phases[0].Imbalance)
	}
}

// Two runs embedded concurrently in one server process must each produce
// a manifest carrying exactly the config handed to them — nothing leaked
// from a concurrent tenant, and nothing scraped off the process's global
// flag set (the pre-fix behavior: flag.Visit on os.Args, shared and racy
// across jobs).
func TestManifestConfigIsolatedAcrossEmbeddedRuns(t *testing.T) {
	// Make sure the global flag set has at least one visited flag to leak
	// (the test binary's own flags are parsed by the testing package).
	if err := flag.Set("test.timeout", flag.Lookup("test.timeout").Value.String()); err != nil {
		t.Fatal(err)
	}
	global := FlagConfig()
	if len(global) == 0 {
		t.Fatal("expected at least one visited global flag in the test binary")
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	paths := make([]string, 2)
	configs := []map[string]string{
		{"job_steps": "8", "job_ranks": "2", "tenant": "alpha"},
		{"job_steps": "3", "job_ranks": "5", "tenant": "beta"},
	}
	for i := range configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := configs[i]
			m := NewManifestConfig(fmt.Sprintf("serve/job%d", i), cfg)
			reg := metrics.NewSharded(2)
			mpi.RunOpt(2, mpi.RunOptions{Metrics: reg}, func(c *mpi.Comm) {
				mpi.AllreduceSum(c, int64(c.Rank()))
			})
			s := NewServer()
			s.RegisterWorld(reg)
			m.Finish(s)
			paths[i] = filepath.Join(dir, fmt.Sprintf("job%d.json", i))
			if err := m.WriteFile(paths[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		want := configs[i]
		if len(m.Config) != len(want) {
			t.Fatalf("job %d config = %v, want exactly %v", i, m.Config, want)
		}
		for k, v := range want {
			if m.Config[k] != v {
				t.Fatalf("job %d config[%s] = %q, want %q", i, k, m.Config[k], v)
			}
		}
		for k := range global {
			if _, ok := m.Config[k]; ok {
				t.Fatalf("job %d config leaked global flag %q: %v", i, k, m.Config)
			}
		}
	}
}
