package trace

import (
	"strings"
	"testing"
	"time"
)

// fakeClock installs a deterministic clock on the tracer: every read
// advances the time by step, so successive spans get distinct,
// reproducible timestamps.
func fakeClock(t *Tracer, step time.Duration) {
	var now time.Duration
	t.now = func() time.Duration {
		now += step
		return now
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.NumRanks() != 0 {
		t.Fatal("nil tracer has ranks")
	}
	r := tr.Rank(0)
	if r != nil {
		t.Fatal("nil tracer returned a rank tracer")
	}
	// Every method must be callable on the nil RankTracer.
	r.Begin("x")
	r.End()
	r.Arg("k", 1)
	r.AddWait("w", time.Second)
	done := false
	r.Span("y", func() { done = true })
	if !done {
		t.Fatal("Span did not run fn on nil tracer")
	}
	if r.Total("y") != 0 {
		t.Fatal("nil tracer has a span total")
	}
	if r.Events() != nil {
		t.Fatal("nil tracer has events")
	}
	if tr.Aggregate() != nil {
		t.Fatal("nil tracer aggregated")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New(1)
	fakeClock(tr, time.Millisecond)
	r := tr.Rank(0)
	r.Begin("outer")
	r.Begin("inner")
	r.End()
	r.Span("sibling", func() {})
	r.Arg("rounds", 3)
	r.End()

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 events, got %d", len(evs))
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	outer, inner, sib := byName["outer"], byName["inner"], byName["sibling"]
	if outer.Depth != 0 || inner.Depth != 1 || sib.Depth != 1 {
		t.Fatalf("bad depths: outer %d inner %d sibling %d", outer.Depth, inner.Depth, sib.Depth)
	}
	// Children must lie strictly inside the parent.
	for _, child := range []Event{inner, sib} {
		if child.Start < outer.Start || child.Start+child.Dur > outer.Start+outer.Dur {
			t.Fatalf("child %q [%v,%v] escapes parent [%v,%v]",
				child.Name, child.Start, child.Start+child.Dur, outer.Start, outer.Start+outer.Dur)
		}
	}
	// Siblings must not overlap.
	if inner.Start+inner.Dur > sib.Start {
		t.Fatalf("siblings overlap: inner ends %v, sibling starts %v", inner.Start+inner.Dur, sib.Start)
	}
	if len(outer.Args) != 1 || outer.Args[0] != (Arg{"rounds", 3}) {
		t.Fatalf("arg not attached to open span: %+v", outer.Args)
	}
}

func TestWaitAttribution(t *testing.T) {
	tr := New(1)
	fakeClock(tr, time.Millisecond)
	r := tr.Rank(0)
	// One clock tick passes per read, so a 1ms wait ending at the AddWait
	// call nests exactly inside the open collective span.
	r.Begin("phase")
	r.BeginCat("collective", CatComm)
	r.AddWait("recv", time.Millisecond)
	r.End()
	r.End()

	var phase, coll, wait *Event
	evs := r.Events()
	for i := range evs {
		switch evs[i].Name {
		case "phase":
			phase = &evs[i]
		case "collective":
			coll = &evs[i]
		case "recv":
			wait = &evs[i]
		}
	}
	if phase == nil || coll == nil || wait == nil {
		t.Fatalf("missing events: %+v", evs)
	}
	if phase.Wait != time.Millisecond || coll.Wait != time.Millisecond {
		t.Fatalf("wait not attributed to open spans: phase %v coll %v", phase.Wait, coll.Wait)
	}
	if wait.Cat != CatWait || wait.Dur != time.Millisecond {
		t.Fatalf("bad wait event: %+v", *wait)
	}

	stats := tr.Aggregate()
	for _, st := range stats {
		if st.Name == "recv" {
			t.Fatal("CatWait leaf reported as a phase")
		}
	}
	ph, ok := tr.Phase("phase")
	if !ok {
		t.Fatal("phase missing from aggregate")
	}
	if ph.WaitShare <= 0 || ph.WaitShare > 1 {
		t.Fatalf("bad wait share %v", ph.WaitShare)
	}
}

func TestAggregateImbalance(t *testing.T) {
	tr := New(4)
	fakeClock(tr, time.Millisecond)
	// Rank r spends (r+1) clock ticks in "work": totals 1,2,3,4 ms.
	for r := 0; r < 4; r++ {
		rt := tr.Rank(r)
		rt.Begin("work")
		for i := 0; i < r; i++ {
			rt.tracer.now() // burn extra ticks to skew the durations
		}
		rt.End()
	}
	st, ok := tr.Phase("work")
	if !ok {
		t.Fatal("work missing")
	}
	if st.Min != 1*time.Millisecond || st.Max != 4*time.Millisecond {
		t.Fatalf("min/max wrong: %v %v", st.Min, st.Max)
	}
	if st.Median != 2500*time.Microsecond {
		t.Fatalf("median wrong: %v", st.Median)
	}
	wantImb := 4.0 / 2.5
	if diff := st.Imbalance - wantImb; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("imbalance %v want %v", st.Imbalance, wantImb)
	}
}

func TestUnmatchedEndAndOpenSpans(t *testing.T) {
	tr := New(1)
	fakeClock(tr, time.Millisecond)
	r := tr.Rank(0)
	r.End() // unmatched End must not panic
	r.Begin("never-closed")
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "never-closed") {
		t.Fatal("open span exported")
	}
}

func TestReportRuns(t *testing.T) {
	tr := New(2)
	fakeClock(tr, time.Millisecond)
	for r := 0; r < 2; r++ {
		tr.Rank(r).Span("balance", func() {})
	}
	var sb strings.Builder
	if err := tr.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "balance") || !strings.Contains(sb.String(), "imb") {
		t.Fatalf("report missing content:\n%s", sb.String())
	}
}
