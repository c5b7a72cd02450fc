package telemetry

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// ringCap bounds the per-rank flight-recorder / live-trace span ring used
// when telemetry is on but the user did not ask for a full trace file.
const ringCap = 8192

// Driver is the shared observability harness of the cmd/ binaries. It
// owns the -telemetry and -manifest flags, the HTTP server, the per-run
// world registry, and the exit-time manifest, so every driver wires live
// telemetry with the same few calls:
//
//	d := telemetry.NewDriver("advect")   // before flag.Parse
//	flag.Parse()
//	defer d.Finish()
//	...
//	world, tr := d.BeginRun(p, userTracer) // per rank-count run
//	// pass world/tr/d.OnRank through experiments.Obs, run, done.
type Driver struct {
	Command string
	Server  *Server

	addr         string
	manifestPath string
	workers      int
	resolvedW    int
	world        *metrics.Registry
	manifest     *Manifest
}

// NewDriver registers the -telemetry and -manifest flags and returns the
// harness. Call before flag.Parse.
func NewDriver(command string) *Driver {
	d := &Driver{Command: command}
	flag.StringVar(&d.addr, "telemetry", "",
		"serve live /metrics, /metrics.json, /healthz and /debug/pprof on this address (e.g. :9600, or 127.0.0.1:0 for an ephemeral port)")
	flag.StringVar(&d.manifestPath, "manifest", "",
		"write a per-run JSON manifest (config, phase summaries, fault stats) to this path at exit")
	flag.IntVar(&d.workers, "workers", 0,
		"kernel worker threads per rank; 0 uses $"+mpi.EnvWorkers+" if set, else 1")
	return d
}

// Workers returns the resolved per-rank kernel worker count. Valid only
// after Start.
func (d *Driver) Workers() int { return d.resolvedW }

// Enabled reports whether any telemetry output was requested.
func (d *Driver) Enabled() bool { return d.addr != "" || d.manifestPath != "" }

// Start brings up the HTTP endpoint (if -telemetry was given) and the
// manifest (if -manifest was given). Call once, after flag.Parse.
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

// BeginRun prepares observability for one run on p ranks: a sharded world
// registry for the message runtime's live counters, and a tracer bridged
// into it so completed phase spans feed the per-phase histograms. When the
// caller did not supply its own tracer, a bounded ring tracer is created —
// cheap enough to leave on, and it doubles as the crash flight recorder's
// span source. Sources of previous runs are dropped, so the endpoints
// always describe the run in flight.
func (d *Driver) BeginRun(p int, tr *trace.Tracer) (*metrics.Registry, *trace.Tracer) {
	if !d.Enabled() {
		return nil, tr
	}
	d.world = metrics.NewSharded(p)
	if tr == nil {
		tr = trace.NewRing(p, ringCap)
	}
	tr.WithMetrics(d.world)
	d.Server.ResetSources()
	d.Server.RegisterWorld(d.world)
	return d.world, tr
}

// OnRank registers one rank's solver registry as a telemetry source; its
// signature matches the experiments.Obs hook.
func (d *Driver) OnRank(name string, rank int, met *metrics.Registry) {
	if d.Server != nil {
		d.Server.Register(name, rank, met)
	}
}

// Finish writes the manifest from the final run's state and shuts the
// endpoint down. Safe to call when telemetry is disabled.
func (d *Driver) Finish() {
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
}
