package trace

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestRingKeepsNewest(t *testing.T) {
	tr := NewRing(1, 4)
	fakeClock(tr, time.Millisecond)
	r := tr.Rank(0)
	for i := 0; i < 10; i++ {
		r.Span(fmt.Sprintf("s%d", i), func() {})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// The newest four spans, oldest first.
	for i, want := range []string{"s6", "s7", "s8", "s9"} {
		if evs[i].Name != want {
			t.Fatalf("evs[%d] = %q, want %q (all: %v)", i, evs[i].Name, want, evs)
		}
	}
	// Chronological order within the window.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("events out of order at %d: %v", i, evs)
		}
	}
}

func TestRingNestingWaitAndArgs(t *testing.T) {
	tr := NewRing(1, 16)
	fakeClock(tr, time.Millisecond)
	r := tr.Rank(0)
	r.Begin("outer")
	r.BeginCat("coll", CatComm)
	r.Arg("bytes", 128)
	r.AddWait("recv", time.Millisecond)
	r.End()
	r.Mark("fault_drop", CatFault)
	r.End()

	byName := map[string]Event{}
	for _, ev := range r.Events() {
		byName[ev.Name] = ev
	}
	outer, coll := byName["outer"], byName["coll"]
	if outer.Depth != 0 || coll.Depth != 1 {
		t.Fatalf("depths: outer %d coll %d", outer.Depth, coll.Depth)
	}
	if outer.Wait != time.Millisecond || coll.Wait != time.Millisecond {
		t.Fatalf("wait attribution: outer %v coll %v", outer.Wait, coll.Wait)
	}
	if len(coll.Args) != 1 || coll.Args[0] != (Arg{"bytes", 128}) {
		t.Fatalf("args: %+v", coll.Args)
	}
	if w := byName["recv"]; w.Cat != CatWait || w.Dur != time.Millisecond {
		t.Fatalf("wait leaf: %+v", w)
	}
	if m := byName["fault_drop"]; m.Cat != CatFault || m.Dur != 0 {
		t.Fatalf("mark: %+v", m)
	}
	// Aggregate and Chrome export must work on ring tracers.
	if _, ok := tr.Phase("outer"); !ok {
		t.Fatal("ring events missing from aggregate")
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "coll") {
		t.Fatal("ring span missing from chrome export")
	}
}

func TestRingSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts differ under -race")
	}
	tr := NewRing(1, 64)
	r := tr.Rank(0)
	// Warm-up inside AllocsPerRun absorbs the first use of each span name
	// (its aggregate and the distribution's lane); steady state must stay
	// at zero.
	if n := testing.AllocsPerRun(200, func() {
		r.Begin("step")
		r.BeginCat("exchange", CatComm)
		r.End()
		r.End()
	}); n != 0 {
		t.Fatalf("ring recording allocated %v allocs/op, want 0", n)
	}
}

func TestSpanTotals(t *testing.T) {
	tr := New(2)
	fakeClock(tr, time.Millisecond)
	for rank := 0; rank < 2; rank++ {
		rt := tr.Rank(rank)
		rt.Span("balance", func() {})
		rt.Span("balance", func() {})
		rt.AddWait("recv", time.Millisecond) // CatWait: must not become an aggregate
	}
	totals := tr.Totals()
	if len(totals) != 1 || totals[0].Name != "balance" {
		t.Fatalf("totals %+v, want balance alone (wait spans are not aggregated)", totals)
	}
	h := totals[0].Dist
	if h.Count() != 4 {
		t.Fatalf("distribution observed %d spans, want 4", h.Count())
	}
	n0, sum0, _ := totals[0].Rank(0)
	n1, sum1, _ := totals[0].Rank(1)
	if n0 != 2 || n1 != 2 {
		t.Fatalf("per-rank counts %d/%d, want 2/2", n0, n1)
	}
	if got := h.Snapshot(); got.Min <= 0 {
		t.Fatalf("distribution recorded nonpositive duration: %+v", got)
	}
	if sum0+sum1 != time.Duration(h.Sum()) {
		t.Fatalf("per-rank sums %v+%v disagree with the distribution's %d", sum0, sum1, h.Sum())
	}
}

// TestRingReportCoversWholeRun: the report reads the running aggregates,
// so a ring that kept only its last 8 spans per rank reports the same
// counts, totals, waits and imbalance as an unbounded store.
func TestRingReportCoversWholeRun(t *testing.T) {
	feed := func(tr *Tracer) []PhaseStat {
		fakeClock(tr, time.Millisecond)
		for rank := 0; rank < 2; rank++ {
			rt := tr.Rank(rank)
			for i := 0; i < 100; i++ {
				rt.Begin(fmt.Sprintf("phase%d", i%3))
				rt.AddWait("recv", time.Duration(rank+1)*time.Millisecond)
				if rank == 1 {
					rt.Span("extra", func() {})
				}
				rt.End()
			}
		}
		return tr.Aggregate()
	}
	all, ring := feed(New(2)), feed(NewRing(2, 8))
	if len(all) != 4 {
		t.Fatalf("unbounded aggregate has %d phases, want 4: %+v", len(all), all)
	}
	if !reflect.DeepEqual(ring, all) {
		t.Fatalf("ring report differs from the unbounded one:\n ring %+v\n  all %+v", ring, all)
	}
	for _, st := range ring {
		if st.Name == "phase0" && st.Count != 2*34 {
			t.Fatalf("phase0 count %d, want 68", st.Count)
		}
	}
}

// recordFixed records one fixed sequence on rank 0 of tr: nested spans,
// an Arg, waits above and below waitEventMin, a Mark, an AddCompleted
// span that starts before the open span it is recorded under, and that
// one span left open. It returns the names of the completed events in
// the order they completed.
func recordFixed(tr *Tracer) []string {
	fakeClock(tr, time.Millisecond)
	r := tr.Rank(0)
	r.Begin("outer") // t=1ms
	r.Begin("a")     // 2ms
	r.Arg("k", 7)
	r.AddWait("recv-long", time.Millisecond) // [2ms, 3ms]
	r.AddWait("recv-short", time.Microsecond)
	r.End()                        // a ends at 4ms
	r.Mark("fault:drop", CatFault) // 5ms
	r.Span("b", func() {})         // [6ms, 7ms]
	r.End()                        // outer ends at 8ms
	r.Begin("open")                // 9ms, never ended
	r.Arg("rounds", 3)
	r.AddCompleted("worker", CatPhase, tr.epoch.Add(8500*time.Microsecond), 250*time.Microsecond)
	r.AddWait("recv-open", 500*time.Microsecond) // ends at 10ms
	r.Span("leaf", func() {})                    // [11ms, 12ms]
	return []string{"recv-long", "a", "fault:drop", "b", "outer", "worker", "recv-open", "leaf"}
}

func TestBoundedMatchesUnbounded(t *testing.T) {
	all := New(1)
	completed := recordFixed(all)
	want := all.Rank(0).Events()
	var names []string
	for _, ev := range want {
		names = append(names, ev.Name)
	}
	begun := []string{"outer", "a", "recv-long", "fault:drop", "b", "worker", "open", "recv-open", "leaf"}
	if !reflect.DeepEqual(names, begun) {
		t.Fatalf("unbounded order %v, want begin order %v", names, begun)
	}

	big := NewRing(1, 1<<10)
	recordFixed(big)
	if got := big.Rank(0).Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded store with room differs:\n got %+v\nwant %+v", got, want)
	}

	for k := 1; k < len(completed); k++ {
		ring := NewRing(1, k)
		recordFixed(ring)
		kept := map[string]bool{}
		for _, name := range completed[len(completed)-k:] {
			kept[name] = true
		}
		var wantK []Event
		for _, ev := range want {
			if ev.Dur < 0 || kept[ev.Name] {
				wantK = append(wantK, ev)
			}
		}
		got := ring.Rank(0).Events()
		if !reflect.DeepEqual(got, wantK) {
			t.Fatalf("k=%d: got %+v\nwant %+v", k, got, wantK)
		}
		open := got[slices.IndexFunc(got, func(ev Event) bool { return ev.Dur < 0 })]
		if open.Name != "open" || open.Depth != 0 || open.Wait != 500*time.Microsecond ||
			!reflect.DeepEqual(open.Args, []Arg{{"rounds", 3}}) {
			t.Fatalf("k=%d: open span damaged after wrap: %+v", k, open)
		}
	}
}
