// Command benchjson converts `go test -bench` text output on stdin into a
// JSON record on stdout, so benchmark runs can be archived and diffed
// across PRs (see `make bench-record`).
//
//	go test -bench 'Step' -benchmem ./... | go run ./cmd/benchjson > BENCH.json
//
// Each benchmark line
//
//	BenchmarkAdvectStep/P8/overlap-16  100  1234567 ns/op  42 B/op  3 allocs/op
//
// becomes an entry {"name": ..., "iterations": ..., "metrics": {"ns/op":
// ..., "B/op": ..., "allocs/op": ...}}. Context lines (goos, goarch, pkg,
// cpu) are carried into the header of the enclosing record.
//
// With -from-manifest, the input is instead a per-run telemetry manifest
// (written by a driver's -manifest flag), whose benchmarks array is
// already entry-shaped; the manifest's command and config become the
// record context. Repeat the flag to merge several manifests.
//
//	go run ./cmd/benchjson -from-manifest run.manifest.json > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type entry struct {
	Name       string `json:"name"`
	Pkg        string `json:"pkg,omitempty"`
	Iterations int64  `json:"iterations"`
	// Procs is the GOMAXPROCS the benchmark ran under, split off the
	// name's "-N" suffix (1 when the suffix is absent, per `go test`
	// convention). Scaling comparisons need it as a first-class field:
	// "AdvectStep/P8/overlap" at 1 proc and at 8 procs are different
	// experiments that previously collided under one name.
	Procs int `json:"procs"`
	// Workers is the per-rank kernel worker count, split off a trailing
	// "/wN" name component (1 when absent). Like Procs, it is part of the
	// experiment's identity: the same step benchmark at w=1 and w=4 must
	// not collide under one name.
	Workers int                `json:"workers"`
	Metrics map[string]float64 `json:"metrics"`
}

type record struct {
	Context    map[string]string `json:"context"`
	Benchmarks []entry           `json:"benchmarks"`
}

// manifestList collects repeated -from-manifest flags.
type manifestList []string

func (m *manifestList) String() string     { return strings.Join(*m, ",") }
func (m *manifestList) Set(s string) error { *m = append(*m, s); return nil }

// manifest is the subset of the telemetry run manifest benchjson reads.
type manifest struct {
	Command    string            `json:"command"`
	Config     map[string]string `json:"config"`
	Ranks      int               `json:"ranks"`
	Workers    int               `json:"workers"`
	Benchmarks []entry           `json:"benchmarks"`
}

func main() {
	var manifests manifestList
	flag.Var(&manifests, "from-manifest",
		"read a telemetry run manifest instead of bench text on stdin (repeatable)")
	flag.Parse()

	rec := record{Context: map[string]string{}, Benchmarks: []entry{}}

	if len(manifests) > 0 {
		rec.Context["goos"] = runtime.GOOS
		rec.Context["goarch"] = runtime.GOARCH
		for _, path := range manifests {
			b, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			var m manifest
			if err := json.Unmarshal(b, &m); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
				os.Exit(1)
			}
			for k, v := range m.Config {
				rec.Context[m.Command+"."+k] = v
			}
			rec.Context[m.Command+".ranks"] = strconv.Itoa(m.Ranks)
			for _, e := range m.Benchmarks {
				e.Pkg = "manifest:" + m.Command
				if e.Procs == 0 {
					e.Procs = 1 // manifests predate the procs field
				}
				if e.Workers == 0 {
					if m.Workers > 0 {
						e.Workers = m.Workers
					} else {
						e.Workers = 1
					}
				}
				rec.Benchmarks = append(rec.Benchmarks, e)
			}
		}
		emit(rec)
		return
	}

	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			rec.Context[k] = strings.TrimSpace(v)
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		e, err := parseBench(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
			continue
		}
		e.Pkg = pkg
		rec.Benchmarks = append(rec.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	emit(rec)
}

func emit(rec record) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
}

// parseBench splits "Name-P iters v1 u1 v2 u2 ..." into an entry. The
// trailing "-P" GOMAXPROCS suffix (appended by `go test` whenever
// GOMAXPROCS > 1) is split into the Procs field, benchstat-style, so the
// same benchmark at different processor counts keeps one name.
func parseBench(line string) (entry, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return entry{}, fmt.Errorf("too few fields")
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return entry{}, fmt.Errorf("iterations: %v", err)
	}
	name, procs := splitProcs(f[0])
	name, workers := splitWorkers(name)
	e := entry{Name: name, Procs: procs, Workers: workers, Iterations: iters, Metrics: map[string]float64{}}
	rest := f[2:]
	if len(rest)%2 != 0 {
		return entry{}, fmt.Errorf("odd value/unit tail")
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return entry{}, fmt.Errorf("value %q: %v", rest[i], err)
		}
		e.Metrics[rest[i+1]] = v
	}
	return e, nil
}

// splitProcs strips a trailing "-N" (N a positive integer) off a benchmark
// name and returns the bare name with N; names without the suffix ran at
// GOMAXPROCS=1, where `go test` omits it.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

// splitWorkers strips a trailing "/wN" sub-benchmark component (N a
// positive integer) off a benchmark name and returns the bare name with N.
// Names without the component ran at one kernel worker per rank, where the
// bench matrices omit it.
func splitWorkers(name string) (string, int) {
	i := strings.LastIndex(name, "/w")
	if i < 0 || strings.ContainsRune(name[i+1:], '/') {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+2:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
