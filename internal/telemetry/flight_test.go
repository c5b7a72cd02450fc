package telemetry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

func ringWithSpans(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.NewRing(2, 64)
	for r := 0; r < 2; r++ {
		rt := tr.Rank(r)
		rt.Span("solve", func() {})
		rt.Mark("fault:drop", trace.CatFault)
		rt.Span("adapt", func() {})
	}
	return tr
}

func TestFlightDumpOnError(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(ringWithSpans(t), dir)
	wantErr := errors.New("injected crash")
	err := fr.Guard(func() error { return wantErr })
	if err != wantErr {
		t.Fatalf("Guard changed the error: %v", err)
	}
	for _, name := range []string{"flight-error.trace.json", "flight-error.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("dump file missing: %v", err)
		}
		if !strings.Contains(string(b), "solve") {
			t.Fatalf("%s missing span content:\n%s", name, b)
		}
	}
	txt, _ := os.ReadFile(filepath.Join(dir, "flight-error.txt"))
	if !strings.Contains(string(txt), "fault:drop") || !strings.Contains(string(txt), "rank 1") {
		t.Fatalf("text dump incomplete:\n%s", txt)
	}
}

func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(ringWithSpans(t), dir)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Guard swallowed the panic")
			}
		}()
		fr.Guard(func() error { panic("rank died") })
	}()
	if _, err := os.Stat(filepath.Join(dir, "flight-panic.trace.json")); err != nil {
		t.Fatalf("panic dump missing: %v", err)
	}
}

func TestFlightNoDumpOnSuccess(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(ringWithSpans(t), dir)
	if err := fr.Guard(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("successful run left dump files: %v", entries)
	}
}

func TestFlightNilTracer(t *testing.T) {
	fr := NewFlightRecorder(nil, t.TempDir())
	if err := fr.Guard(func() error { return errors.New("x") }); err == nil {
		t.Fatal("error lost")
	}
	if paths, err := fr.Dump("manual"); err != nil || paths != nil {
		t.Fatalf("nil-tracer dump: %v %v", paths, err)
	}
}

// TestFlightDumpShowsOpenSpans checks that the text dump tells where each
// rank was when a guarded run failed: the spans still open on a bounded
// tracer are listed and marked, while the Chrome dump, which has no form
// for an unfinished span, still leaves them out.
func TestFlightDumpShowsOpenSpans(t *testing.T) {
	dir := t.TempDir()
	tr := trace.NewRing(2, 64)
	fr := NewFlightRecorder(tr, dir)
	err := fr.Guard(func() error {
		return mpi.RunErrOpt(2, mpi.RunOptions{Tracer: tr}, func(c *mpi.Comm) error {
			rt := c.Tracer()
			rt.Span("refine", func() {})
			rt.Begin("balance")
			rt.BeginCat("Allreduce", trace.CatComm)
			return errors.New("rank failed mid-collective")
		})
	})
	if err == nil {
		t.Fatal("guarded run lost its error")
	}
	txt, err := os.ReadFile(filepath.Join(dir, "flight-error.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"balance", "Allreduce"} {
		n := 0
		for _, line := range strings.Split(string(txt), "\n") {
			if strings.Contains(line, " "+name+" ") && strings.HasSuffix(line, "(open)") {
				n++
			}
		}
		if n != 2 {
			t.Fatalf("%s marked (open) on %d ranks, want 2:\n%s", name, n, txt)
		}
	}
	js, err := os.ReadFile(filepath.Join(dir, "flight-error.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "refine") || strings.Contains(string(js), "balance") ||
		strings.Contains(string(js), "Allreduce") {
		t.Fatalf("chrome dump must keep completed spans and skip open ones:\n%s", js)
	}
}
