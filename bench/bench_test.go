package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// toyConfig runs a workload at toy size for the shortest timed section.
func toyConfig(trace bool) config {
	return config{seed: 1, seconds: 0.01, trace: trace, toy: true}
}

// TestContract holds BENCHMARK.json and the tables in metrics.go in step
// and inside the limits the benchmark's contract sets.
func TestContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", n, len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from metrics.go or its why is too long", i, w.Name)
		}
	}
	same := func(kind string, got, want []metricDef, most int) {
		if len(got) != len(want) || len(got) < 1 || len(got) > most {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in metrics.go, at most %d allowed", kind, len(got), len(want), most)
		}
		for i, d := range got {
			unique(d.Name)
			if d != want[i] || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
				t.Errorf("%s %d: %+v, metrics.go has %+v", kind, i, d, want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, 16)
	same("per_layer", doc.PerLayer, perLayer, 128)
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", d)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 {
			t.Errorf("%s has no bound", d.Name)
		}
	}
}

// checkMetrics asserts that a result carries exactly the given metrics,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || !finite(m.Value) {
			t.Errorf("metric %s: reported=%t %+v, want a finite value in %s", d.Name, ok, m, d.Unit)
		}
	}
	if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
		t.Errorf("attempted %d, failed %d, correct %t", res.Attempted, res.Failed, res.Correct)
	}
}

// TestSmoke runs every workload at toy size through the same code as a
// measurement, under whatever AMR_TRANSPORT / AMR_WORKERS the CI matrix
// exports: only the command line refuses those.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := measure(w, toyConfig(false), dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
				t.Errorf("scratch left behind: %v", left)
			}
		})
	}
}

// TestTraced runs one traced measurement: the main workload and the toy
// slices of the other three must between them report every per-layer
// metric once, and leave one well-formed span file.
func TestTraced(t *testing.T) {
	dir := t.TempDir()
	res, err := measure(&workloads[0], toyConfig(true), dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, perLayer)
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 1 || filepath.Base(left[0]) != "trace-"+workloads[0].name+".json" {
		t.Fatalf("files after a traced run: %v", left)
	}
	b, err := os.ReadFile(left[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			span
			SelfNS int64 `json:"self_ns"`
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(doc.Spans))
	}
	for _, s := range doc.Spans {
		if s.End < s.Start || s.SelfNS < 0 || s.SelfNS > s.End-s.Start || s.Parent >= len(doc.Spans) {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestChecksFire feeds every workload a deliberately wrong expected
// answer: a correctness check that never runs would leave failed at 0.
func TestChecksFire(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := toyConfig(false)
			cfg.corrupt = true
			res, err := measure(w, cfg, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Errorf("failed %d of %d, correct %t: the checks did not fire", res.Failed, res.Attempted, res.Correct)
			}
		})
	}
}

// TestCountsRepeat: the exact counts of two traced runs of one seed are
// equal, so a later change can be judged by them.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"fig4-fractal", "fig5-advect"} {
		w := findWorkload(name)
		var runs [2]*outcome
		for i := range runs {
			cfg := toyConfig(true)
			cfg.tmp = t.TempDir()
			out, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = out
		}
		counts := 0
		for _, d := range perLayer {
			a, ok := runs[0].layer[d.Name]
			if d.Unit != "count" || !ok {
				continue
			}
			counts++
			if b := runs[1].layer[d.Name]; a != b {
				t.Errorf("%s %s: %v then %v", name, d.Name, a, b)
			}
		}
		if counts == 0 {
			t.Errorf("%s reported no exact counts", name)
		}
	}
}

// TestRefusesEnv: a measurement from the command line does not start
// under an environment that overrides the code's defaults.
func TestRefusesEnv(t *testing.T) {
	t.Setenv("AMR_WORKERS", "2")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "fig4-fractal", "-seconds", "0.01"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit code %d, stdout %q", code, stdout.String())
	}
}
