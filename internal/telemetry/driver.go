package telemetry

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/pprof"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Driver is the shared observability harness of the cmd/ binaries. It
// owns the -telemetry, -manifest, -workers, -trace and -profile flags, the
// HTTP server, the per-run world registry, the CPU profile, the last run's
// tracer and the exit-time manifest and trace report, so every driver
// wires observability with the same few calls:
//
//	d := telemetry.NewDriver("advect")   // before flag.Parse
//	flag.Parse()
//	if err := d.Start(); err != nil { log.Fatal(err) }
//	defer d.Finish()
//	...
//	world, tr := d.BeginRun(p, nil) // per rank-count run
//	// pass world/tr/d.OnRank through experiments.Obs, run, done.
type Driver struct {
	Command string
	Server  *Server

	addr         string
	manifestPath string
	tracePath    string
	profilePath  string
	workers      int
	resolvedW    int
	manifest     *Manifest
	profile      *os.File
	last         *trace.Tracer // the last run's tracer, reported by Finish
	out          io.Writer     // where Finish prints the trace report
}

// NewDriver registers the harness's flags on the command line and returns
// it. Call before flag.Parse.
func NewDriver(command string) *Driver { return newDriver(command, flag.CommandLine) }

func newDriver(command string, fs *flag.FlagSet) *Driver {
	d := &Driver{Command: command, out: os.Stdout}
	fs.StringVar(&d.addr, "telemetry", "",
		"serve live /metrics, /metrics.json, /healthz and /debug/pprof on this address (e.g. :9600, or 127.0.0.1:0 for an ephemeral port)")
	fs.StringVar(&d.manifestPath, "manifest", "",
		"write a per-run JSON manifest (config, phase summaries, fault stats) to this path at exit")
	fs.IntVar(&d.workers, "workers", 0,
		"kernel worker threads per rank; 0 uses $"+mpi.EnvWorkers+" if set, else 1")
	fs.StringVar(&d.tracePath, "trace", "", "write the last run's Chrome trace-event JSON here")
	fs.StringVar(&d.profilePath, "profile", "", "write a CPU profile (pprof) of all runs here")
	return d
}

// Workers returns the resolved per-rank kernel worker count. Valid only
// after Start.
func (d *Driver) Workers() int { return d.resolvedW }

// Enabled reports whether live telemetry or a manifest was requested.
func (d *Driver) Enabled() bool { return d.addr != "" || d.manifestPath != "" }

// Start starts the CPU profile (if -profile was given), the HTTP endpoint
// (if -telemetry was given) and the manifest (if -manifest was given).
// Call once, after flag.Parse.
func (d *Driver) Start() error {
	// A stale AMR_TRANSPORT or a bad -workers (or AMR_WORKERS) fails here,
	// before any work, telemetry on or off.
	if err := mpi.CheckTransportEnv(); err != nil {
		return err
	}
	w, err := mpi.ResolveWorkers(d.workers)
	if err != nil {
		return err
	}
	d.resolvedW = w
	if d.profilePath != "" {
		f, err := os.Create(d.profilePath)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("profile: %w", err)
		}
		d.profile = f
	}
	if !d.Enabled() {
		return nil
	}
	d.Server = NewServer()
	if d.manifestPath != "" {
		d.manifest = NewManifest(d.Command)
		d.manifest.Transport = mpi.DefaultTransport
		d.manifest.Workers = d.resolvedW
	}
	if d.addr != "" {
		addr, err := d.Server.ListenAndServe(d.addr)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /healthz, /debug/pprof on http://%s\n", addr)
	}
	return nil
}

// BeginRun prepares observability for one run on p ranks. The run is
// traced by tr if the caller passes one (cmd/scaling traces every run),
// else by a full tracer when -trace was given; either becomes the last
// run's tracer that Finish reports. With live telemetry on, a sharded
// world registry collects the message runtime's counters and the tracer
// is registered with the server, whose per-phase series read the
// tracer's running aggregates; a run without a tracer then gets a bounded
// ring tracer — cheap enough to leave on, and it doubles as the crash
// flight recorder's span source. Sources of previous runs are dropped, so
// the endpoints always describe the run in flight.
func (d *Driver) BeginRun(p int, tr *trace.Tracer) (*metrics.Registry, *trace.Tracer) {
	if tr == nil && d.tracePath != "" {
		tr = trace.New(p)
	}
	if tr != nil {
		d.last = tr
	}
	if !d.Enabled() {
		return nil, tr
	}
	world := metrics.NewSharded(p)
	if tr == nil {
		tr = trace.NewRing(p, FlightWindow)
	}
	d.Server.ResetSources()
	d.Server.RegisterWorld(world)
	d.Server.RegisterTracer(tr)
	return world, tr
}

// OnRank registers one rank's solver registry as a telemetry source; its
// signature matches the experiments.Obs hook.
func (d *Driver) OnRank(name string, rank int, met *metrics.Registry) {
	if d.Server != nil {
		d.Server.Register(name, rank, met)
	}
}

// Finish stops the CPU profile, writes the manifest from the final run's
// state, shuts the endpoint down, and prints the last run's trace report,
// writing its Chrome trace file when -trace was given. Safe to call when
// nothing was enabled.
func (d *Driver) Finish() {
	if d.profile != nil {
		pprof.StopCPUProfile()
		if err := d.profile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		}
	}
	if d.manifest != nil {
		d.manifest.Finish(d.Server)
		if err := d.manifest.WriteFile(d.manifestPath); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: manifest: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "telemetry: wrote manifest to %s\n", d.manifestPath)
		}
	}
	if d.Server != nil {
		d.Server.Close()
	}
	if d.last == nil {
		return
	}
	fmt.Fprintln(d.out)
	fmt.Fprintln(d.out, "Trace report of the last run (per-phase imbalance and recv-wait share):")
	d.last.WriteReport(d.out)
	if d.tracePath == "" {
		return
	}
	if err := d.last.WriteChromeTraceFile(d.tracePath); err != nil {
		log.Fatalf("trace: %v", err)
	}
	fmt.Fprintf(d.out, "wrote Chrome trace to %s (open in ui.perfetto.dev)\n", d.tracePath)
}
