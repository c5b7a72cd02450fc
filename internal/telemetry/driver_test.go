package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// TestDriverHarness drives the CLI harness the way a cmd/ binary does —
// flags, Start, one traced run, Finish — and checks its three outputs: a
// well-formed Chrome trace file, the trace report on stdout, and a
// non-empty CPU profile.
func TestDriverHarness(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	profPath := filepath.Join(dir, "cpu.pprof")
	fs := flag.NewFlagSet("harness", flag.ContinueOnError)
	d := newDriver("harness", fs)
	if err := fs.Parse([]string{"-trace", tracePath, "-profile", profPath}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	d.out = &out
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	world, tr := d.BeginRun(2, nil)
	if world != nil || tr == nil {
		t.Fatalf("BeginRun with -trace and no -telemetry: world %v, tracer %v", world, tr)
	}
	mpi.RunOpt(2, mpi.RunOptions{Tracer: tr}, func(c *mpi.Comm) {
		c.Tracer().Span("solve", func() { mpi.AllreduceSum(c, int64(c.Rank())) })
	})
	d.Finish()

	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	spans := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "solve" && ev.Ph == "X" {
			spans[ev.Tid] = true
		}
	}
	if !spans[0] || !spans[1] {
		t.Errorf("Chrome trace lacks a solve span on each rank: %s", b)
	}

	report := out.String()
	if !strings.Contains(report, "Trace report") || !strings.Contains(report, "solve") ||
		!strings.Contains(report, tracePath) {
		t.Errorf("stdout lacks the trace report or the trace path:\n%s", report)
	}

	if st, err := os.Stat(profPath); err != nil || st.Size() == 0 {
		t.Errorf("CPU profile missing or empty: %v", err)
	}
}
