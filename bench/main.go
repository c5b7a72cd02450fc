// Command bench is the repository's benchmark: four workloads (static
// AMR, dynamic-AMR advection, fixed-mesh seismic waves, the job server),
// four gated end-to-end metrics each, and a traced pass that splits the
// time by layer. BENCHMARK.json at the repository root is its contract
// and README.md its manual.
//
//	go run ./bench -workload fig5-advect -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload fig5-advect -seed 1 -seconds 20 -trace 1
//	go run ./bench -all -runs 10 > A.jsonl
//	go run ./bench -compare A.jsonl B.jsonl
//
// A measurement prints one JSON object as the last (and only) line of
// standard output; everything meant for people goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/mpi"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a measurement prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -all run: the input of -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

// outDir holds everything a run writes: scratch directories, removed
// when the run ends, and the span file of a traced run.
const outDir = "bench/out"

// toySliceSeconds is the timed section of the other workloads' toy-size
// slices inside a traced run.
const toySliceSeconds = 0.2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed section")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: spans and probes, per-layer metrics")
	all := fs.Bool("all", false, "measure every workload (or just -workload), each run in a process of its own, one record per line")
	runs := fs.Int("runs", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two -all outputs: bench -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two files"))
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	// A later change of a default must show up in the numbers; a stray
	// environment variable must not.
	for _, env := range []string{mpi.EnvTransport, mpi.EnvWorkers} {
		if v, ok := os.LookupEnv(env); ok {
			return fail(fmt.Errorf("%s=%q is set: measurements run on the code's defaults only", env, v))
		}
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *runs < 1 {
		return fail(errors.New("want -trace 0|1, -seconds > 0, -runs >= 1"))
	}
	if *all {
		if err := runAll(stdout, stderr, *name, *seed, *seconds, *runs); err != nil {
			return fail(err)
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	res, err := measure(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1}, outDir, stderr)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// measure runs one workload and turns its outcome into the result line.
// Scratch space lives under dir and is gone when measure returns.
func measure(w *workload, cfg config, dir string, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(dir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	out, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	defs, values := endToEnd, map[string]float64{}
	if cfg.trace {
		defs = perLayer
		values, err = perLayerValues(w, cfg, dir, out)
	} else {
		values["setup_s"] = median(out.setups)
		values["us_per_unit"] = lowDecile(out.samples)
		values["peak_rss_mb"], err = peakRSSMB()
	}
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(stderr, "# %s seed=%d seconds=%g trace=%t transport=%s workers=%d numcpu=%d gomaxprocs=%d %s rev=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, out.transport, out.workers,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	fmt.Fprintf(stderr, "# samples: %d set-ups, %d timed operations (%d with spans), %d checked, %d failed\n",
		len(out.setups), len(out.samples)+len(out.traced), len(out.traced), out.attempted, out.failed)
	for _, n := range out.notes {
		fmt.Fprintln(stderr, "#", n)
	}

	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || !finite(v) {
			fmt.Fprintf(stderr, "# FAILED metric %s: measured=%t value=%v\n", d.Name, ok, v)
			res.Correct, v = false, 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stderr, "%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	return res, nil
}

// perLayerValues completes a traced run: the benchmark's own metrics,
// the span file, and the layers this workload does not exercise.
func perLayerValues(w *workload, cfg config, dir string, out *outcome) (map[string]float64, error) {
	values := out.layer
	values["bench.units_per_s"] = out.units / out.wall
	values["bench.trace_overhead_pct"] = 100 * (lowDecile(out.traced)/lowDecile(out.samples) - 1)
	values["bench.unaccounted_share"] = unaccountedShare(out.spans)
	if err := writeTrace(filepath.Join(dir, "trace-"+w.name+".json"), w.name, cfg, out); err != nil {
		return nil, err
	}
	// The contract wants every per-layer metric from every traced run.
	// The other layers are read off toy-size slices of the workloads
	// that exercise them; a metric this workload measured keeps its
	// full-size value.
	for i := range workloads {
		o := &workloads[i]
		if o == w {
			continue
		}
		slice, err := o.run(config{seed: cfg.seed, seconds: toySliceSeconds, trace: true, toy: true, tmp: cfg.tmp})
		if err != nil {
			return nil, fmt.Errorf("%s slice: %w", o.name, err)
		}
		out.attempted += slice.attempted
		out.failed += slice.failed
		for _, n := range slice.notes {
			out.note("%s slice: %s", o.name, n)
		}
		for k, v := range slice.layer {
			if _, set := values[k]; !set {
				values[k] = v
			}
		}
	}
	return values, nil
}

// revision is the VCS revision the binary was built from, if the build
// recorded one.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// writeTrace writes the merged spans of a traced run as one JSON file.
func writeTrace(path, workload string, cfg config, out *outcome) error {
	self := selfTimes(out.spans)
	type spanOut struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	spans := make([]spanOut, len(out.spans))
	for i, s := range out.spans {
		spans[i] = spanOut{s, self[i]}
	}
	doc := map[string]any{
		"workload": workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"transport": out.transport, "workers": out.workers,
		"numcpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "revision": revision(),
		"layer_self_ns": layerSelf(out.spans),
		"spans":         spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runAll measures every workload (or only the named one): runs untraced runs on consecutive
// seeds, then one traced run, each in a child process so that peak
// memory and GC state belong to one workload run.
func runAll(stdout, stderr io.Writer, only string, seed int64, seconds float64, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		for i := 0; i <= runs; i++ {
			rec := record{Workload: w.name, Seed: seed + int64(i), Seconds: seconds}
			if i == runs {
				rec.Seed, rec.Trace = seed, 1
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(rec.Seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(rec.Trace))
			cmd.Stderr = stderr
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.name, rec.Seed, rec.Trace, err)
			}
			if err := json.Unmarshal(lastLine(b), &rec.Result); err != nil {
				return fmt.Errorf("%s seed %d trace %d: result line: %w", w.name, rec.Seed, rec.Trace, err)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}
