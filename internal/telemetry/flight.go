package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// FlightWindow is the per-rank capacity of every bounded tracer that a
// FlightRecorder dumps (trace.NewRing(p, FlightWindow)): the drivers'
// live-telemetry runs, their robust mode, and each serve job attempt.
const FlightWindow = 4096

// FlightRecorder pairs a tracer (typically bounded to FlightWindow) with a
// dump directory: when a guarded run unwinds with an error or a panic, the
// most recent spans of every rank are written to disk — a Chrome-trace
// JSON for the timeline view and a plain-text tail for reading over ssh —
// so a chaos run that died at step 40k leaves evidence next to its last
// checkpoint.
type FlightRecorder struct {
	tr  *trace.Tracer
	dir string
}

// NewFlightRecorder returns a recorder that dumps tr's buffers into dir.
// A nil tracer yields a recorder whose Guard is a pure pass-through.
func NewFlightRecorder(tr *trace.Tracer, dir string) *FlightRecorder {
	return &FlightRecorder{tr: tr, dir: dir}
}

// Guard runs fn, dumping the flight buffers if fn returns an error or
// panics. The panic is re-raised after the dump; the error is returned
// unchanged. Guard must be called after the world has unwound its ranks
// (i.e. wrap the mpi.Run call, not code inside a rank), because the dump
// reads the per-rank trace buffers without synchronization.
func (f *FlightRecorder) Guard(fn func() error) error {
	defer func() {
		if p := recover(); p != nil {
			if paths, err := f.Dump("panic"); err == nil && len(paths) > 0 {
				fmt.Fprintf(os.Stderr, "flight recorder: dumped %v\n", paths)
			}
			panic(p)
		}
	}()
	err := fn()
	if err != nil {
		if paths, derr := f.Dump("error"); derr == nil && len(paths) > 0 {
			fmt.Fprintf(os.Stderr, "flight recorder: dumped %v\n", paths)
		}
	}
	return err
}

// Dump writes the current buffers as flight-<reason>.trace.json and
// flight-<reason>.txt in the recorder's directory and returns the written
// paths. A nil tracer dumps nothing.
func (f *FlightRecorder) Dump(reason string) ([]string, error) {
	if f == nil || f.tr == nil {
		return nil, nil
	}
	if f.dir != "" {
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, err
		}
	}
	base := filepath.Join(f.dir, "flight-"+sanitizeName(reason))
	jsonPath := base + ".trace.json"
	if err := f.tr.WriteChromeTraceFile(jsonPath); err != nil {
		return nil, err
	}
	txtPath := base + ".txt"
	file, err := os.Create(txtPath)
	if err != nil {
		return []string{jsonPath}, err
	}
	werr := f.writeText(file, reason)
	cerr := file.Close()
	if werr == nil {
		werr = cerr
	}
	return []string{jsonPath, txtPath}, werr
}

// writeText renders the human-readable dump: the aggregate phase report
// followed by each rank's retained span tail in begin order, with the
// spans still open when the run unwound (where each rank was) marked
// "(open)".
func (f *FlightRecorder) writeText(w *os.File, reason string) error {
	fmt.Fprintf(w, "flight recorder dump (%s) at %s\n\n", reason, time.Now().Format(time.RFC3339))
	if err := f.tr.WriteReport(w); err != nil {
		return err
	}
	for r := 0; r < f.tr.NumRanks(); r++ {
		events := f.tr.Rank(r).Events()
		fmt.Fprintf(w, "\n== rank %d: last %d events ==\n", r, len(events))
		for i := range events {
			ev := &events[i]
			fmt.Fprintf(w, "  +%-12s %-24s [%s]", ev.Start, ev.Name, ev.Cat)
			if ev.Dur < 0 {
				fmt.Fprint(w, " (open)")
			} else if ev.Dur > 0 {
				fmt.Fprintf(w, " dur=%s", ev.Dur)
			}
			if ev.Wait > 0 {
				fmt.Fprintf(w, " wait=%s", ev.Wait)
			}
			for _, a := range ev.Args {
				fmt.Fprintf(w, " %s=%d", a.Key, a.Val)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
