package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Manifest is the structured record of one run, written as JSON at exit:
// what was run (command + resolved flag values), how long it took, the
// per-phase latency distributions and cross-rank imbalance, and the
// communication and fault totals.
type Manifest struct {
	Command     string            `json:"command"`
	Config      map[string]string `json:"config,omitempty"`
	StartTime   time.Time         `json:"start_time"`
	EndTime     time.Time         `json:"end_time"`
	WallSeconds float64           `json:"wall_seconds"`
	Ranks       int               `json:"ranks"`
	// Transport records the rank fabric the run used (always
	// mpi.DefaultTransport; kept so the manifest format is stable).
	Transport string `json:"transport,omitempty"`
	// Workers records the resolved per-rank kernel worker count, the other
	// half of the run's parallel configuration.
	Workers int `json:"workers,omitempty"`

	Phases   []PhaseSummary   `json:"phases,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Faults   map[string]int64 `json:"faults,omitempty"`
}

// PhaseSummary is one duration histogram's manifest form.
type PhaseSummary struct {
	Name         string          `json:"name"`
	Count        int64           `json:"count"`
	TotalSeconds float64         `json:"total_seconds"`
	P50Seconds   float64         `json:"p50_seconds"`
	P95Seconds   float64         `json:"p95_seconds"`
	P99Seconds   float64         `json:"p99_seconds"`
	MaxSeconds   float64         `json:"max_seconds"`
	Imbalance    float64         `json:"imbalance"`
	PerRank      map[int]float64 `json:"per_rank_seconds,omitempty"`
}

// NewManifest starts a manifest for the named command, capturing every
// parsed flag's resolved value as the run's config — the CLI drivers'
// convenience form. Runs embedded in a long-lived process (the serve
// scheduler's jobs) must use NewManifestConfig instead: the global flag
// set belongs to the host process, so reading it from a job records the
// server's command line, identically and racily, for every tenant.
func NewManifest(command string) *Manifest {
	return NewManifestConfig(command, FlagConfig())
}

// NewManifestConfig starts a manifest for the named command with an
// explicit config map (copied, so the caller may keep mutating its own).
func NewManifestConfig(command string, config map[string]string) *Manifest {
	cfg := make(map[string]string, len(config))
	for k, v := range config {
		cfg[k] = v
	}
	return &Manifest{
		Command:   command,
		Config:    cfg,
		StartTime: time.Now(),
	}
}

// FlagConfig captures every parsed flag's resolved value from the global
// flag set: the one-process-one-run notion of config the cmd drivers use.
func FlagConfig() map[string]string {
	cfg := map[string]string{}
	flag.Visit(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	return cfg
}

// Finish stamps the end time and folds the server's merged snapshot into
// the manifest: phases from the duration histograms, counters split into
// fault and non-fault groups, and one value per gauge.
func (m *Manifest) Finish(s *Server) {
	m.EndTime = time.Now()
	m.WallSeconds = m.EndTime.Sub(m.StartTime).Seconds()
	snap := s.Gather()
	m.Ranks = snap.Ranks

	for _, h := range snap.Histograms {
		if h.Unit != metrics.UnitDuration {
			continue
		}
		ps := PhaseSummary{
			Name:         h.Name,
			Count:        h.Count,
			TotalSeconds: float64(h.Sum) / 1e9,
			P50Seconds:   float64(h.P50) / 1e9,
			P95Seconds:   float64(h.P95) / 1e9,
			P99Seconds:   float64(h.P99) / 1e9,
			MaxSeconds:   float64(h.Max) / 1e9,
			Imbalance:    h.Imbalance(snap.Ranks),
		}
		if len(h.PerRankSum) > 0 {
			ps.PerRank = map[int]float64{}
			for r, v := range h.PerRankSum {
				ps.PerRank[r] = float64(v) / 1e9
			}
		}
		m.Phases = append(m.Phases, ps)
	}
	sort.Slice(m.Phases, func(i, j int) bool { return m.Phases[i].Name < m.Phases[j].Name })

	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "fault_") {
			if m.Faults == nil {
				m.Faults = map[string]int64{}
			}
			m.Faults[c.Name] = c.Total
			continue
		}
		if m.Counters == nil {
			m.Counters = map[string]int64{}
		}
		m.Counters[c.Name] = c.Total
	}
	for _, g := range snap.Gauges {
		if m.Gauges == nil {
			m.Gauges = map[string]int64{}
		}
		// The manifest keeps one value per gauge: the slowest rank's (the
		// conservative progress indicator).
		var min int64
		first := true
		for _, v := range g.PerRank {
			if first || v < min {
				min, first = v, false
			}
		}
		m.Gauges[g.Name] = min
	}
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
