package main

import (
	"math"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if q1, q3 := quantile(v, 0.25), quantile(v, 0.75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
	if v[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: the function must sort
		}
		return v
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{30, 0, math.NaN()}, // p75 would leave 7 beyond
		{40, 75, 30},        // exactly 10 beyond
		{100, 90, 90},
		{199, 90, 180}, // p95 would leave 9 beyond
		{200, 95, 190},
		{288, 95, 274},
		{1000, 99, 990},
	} {
		pct, v := tailPercentile(seq(tc.n))
		if pct != tc.pct || (v != tc.value && !(math.IsNaN(v) && math.IsNaN(tc.value))) {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", tc.n, pct, v, tc.pct, tc.value)
		}
	}
	if p := percentile(seq(100), 95); p != 95 {
		t.Errorf("percentile(95) of 1..100 = %v", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: opRoot, Start: 0, End: 100, Parent: -1},
		{Name: "core.a", Start: 10, End: 40, Parent: 0},   // nested child below
		{Name: "mpi.wait", Start: 20, End: 30, Parent: 1}, // grandchild: not the root's child
		{Name: "core.b", Start: 35, End: 60, Parent: 0},   // overlaps core.a by 5
		{Name: "core.c", Start: 60, End: 70, Parent: 0},   // abuts core.b
		{Name: "core.d", Start: 90, End: 120, Parent: 0},  // runs past the parent: clipped
		{Name: opRoot, Start: 200, End: 300, Parent: -1},  // a root with no children
	}
	want := []int64{100 - (30 + 20 + 10 + 10), 30 - 10, 10, 25, 10, 30, 100}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	// Roots: 30 + 100 unaccounted out of 200.
	if u := unaccountedShare(spans); u != 0.65 {
		t.Errorf("unaccounted share %v, want 0.65", u)
	}
	if self := layerSelf(spans); self["core"] != 20+25+10+30 || self["mpi"] != 10 || self["bench"] != 130 {
		t.Errorf("layer self times %v", self)
	}
	if unaccountedShare(nil) != 0 {
		t.Error("unaccounted share of an empty trace")
	}
}

func TestRecorder(t *testing.T) {
	rec := newRecorder(config{trace: true}, 2)
	for r := 0; r < 2; r++ {
		ln := rec.lane(r)
		ln.startOp(7, true)
		ln.begin(opRoot)
		ln.do("core.x", func() {})
		ln.end()
		ln.startOp(8, false)
		ln.do("core.off", func() {})
	}
	all := rec.merge()
	if len(all) != 4 {
		t.Fatalf("%d spans, want 4", len(all))
	}
	if all[1].Parent != 0 || all[3].Parent != 2 || all[2].Parent != -1 || all[3].Rank != 1 || all[3].Op != 7 {
		t.Errorf("merge lost the structure: %+v", all)
	}
	// An untraced run has no recorder: its nil lanes record nothing.
	ln := newRecorder(config{}, 2).lane(0)
	ln.startOp(1, true)
	ln.do("core.nil", func() {})
	if ln.recording() {
		t.Error("a nil lane records")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 85, 115, 90, 110, 70, 130, 100, 100}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, steady, "same"},
		{lower, steady, shift(steady, 1.05), "same"},
		{lower, steady, shift(steady, 1.2), "worse"},
		{lower, steady, shift(steady, 0.8), "better"},
		{higher, steady, shift(steady, 0.8), "worse"},
		{higher, steady, shift(steady, 1.2), "better"},
		{lower, noisy, noisy, "unresolved"},
		{lower, noisy, shift(steady, 0.5), "better"}, // every run of B beats every run of A
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: median %v -> %v: %s, want %s", tc.d.Better, median(tc.a), median(tc.b), got, tc.want)
		}
	}
}
