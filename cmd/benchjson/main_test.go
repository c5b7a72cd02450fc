package main

import (
	"reflect"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		name string
		line string
		want entry
	}{
		{
			name: "no procs suffix (GOMAXPROCS=1)",
			line: "BenchmarkPREM 1000000 1234 ns/op",
			want: entry{Name: "BenchmarkPREM", Procs: 1, Workers: 1, Iterations: 1000000,
				Metrics: map[string]float64{"ns/op": 1234}},
		},
		{
			name: "procs suffix split off",
			line: "BenchmarkAdvectStep/P8/overlap-16 100 2345678 ns/op 42 B/op 3 allocs/op",
			want: entry{Name: "BenchmarkAdvectStep/P8/overlap", Procs: 16, Workers: 1, Iterations: 100,
				Metrics: map[string]float64{"ns/op": 2345678, "B/op": 42, "allocs/op": 3}},
		},
		{
			name: "dash inside sub-bench name, no suffix",
			line: "BenchmarkFoo/pre-balance 50 9.5 ns/op",
			want: entry{Name: "BenchmarkFoo/pre-balance", Procs: 1, Workers: 1, Iterations: 50,
				Metrics: map[string]float64{"ns/op": 9.5}},
		},
		{
			name: "dash inside sub-bench name with suffix",
			line: "BenchmarkFoo/pre-balance-4 50 9.5 ns/op",
			want: entry{Name: "BenchmarkFoo/pre-balance", Procs: 4, Workers: 1, Iterations: 50,
				Metrics: map[string]float64{"ns/op": 9.5}},
		},
		{
			name: "custom metric units",
			line: "BenchmarkSeismicStep/P2/overlap-2 7 1.5e7 ns/op 0.31 bndfrac",
			want: entry{Name: "BenchmarkSeismicStep/P2/overlap", Procs: 2, Workers: 1, Iterations: 7,
				Metrics: map[string]float64{"ns/op": 1.5e7, "bndfrac": 0.31}},
		},
		{
			name: "workers component split off",
			line: "BenchmarkAdvectStep/P4/overlap/w4-4 10 3456789 ns/op",
			want: entry{Name: "BenchmarkAdvectStep/P4/overlap", Procs: 4, Workers: 4, Iterations: 10,
				Metrics: map[string]float64{"ns/op": 3456789}},
		},
		{
			name: "workers component without procs suffix",
			line: "BenchmarkSeismicStep/P1/overlap/w2 5 8.5e8 ns/op",
			want: entry{Name: "BenchmarkSeismicStep/P1/overlap", Procs: 1, Workers: 2, Iterations: 5,
				Metrics: map[string]float64{"ns/op": 8.5e8}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBench(tc.line)
			if err != nil {
				t.Fatalf("parseBench(%q): %v", tc.line, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseBench(%q)\n got %+v\nwant %+v", tc.line, got, tc.want)
			}
		})
	}

	for _, bad := range []string{"BenchmarkX", "BenchmarkX abc 1 ns/op", "BenchmarkX 10 5"} {
		if _, err := parseBench(bad); err == nil {
			t.Errorf("parseBench(%q) should fail", bad)
		}
	}
}

func TestSplitProcs(t *testing.T) {
	cases := []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX-0", "BenchmarkX-0", 1},   // zero is not a procs count
		{"BenchmarkX--4", "BenchmarkX-", 4},   // last dash wins
		{"BenchmarkX-a4", "BenchmarkX-a4", 1}, // non-numeric tail stays
	}
	for _, tc := range cases {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = (%q, %d), want (%q, %d)", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		workers int
	}{
		{"BenchmarkX/P4/overlap/w4", "BenchmarkX/P4/overlap", 4},
		{"BenchmarkX/P4/overlap", "BenchmarkX/P4/overlap", 1},
		{"BenchmarkX/w2", "BenchmarkX", 2},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX/w0", "BenchmarkX/w0", 1},           // zero is not a worker count
		{"BenchmarkX/wide", "BenchmarkX/wide", 1},       // non-numeric tail stays
		{"BenchmarkX/w4/chan", "BenchmarkX/w4/chan", 1}, // only a trailing component counts
		{"BenchmarkX/warm8", "BenchmarkX/warm8", 1},     // "w" must be the whole prefix
	}
	for _, tc := range cases {
		name, workers := splitWorkers(tc.in)
		if name != tc.name || workers != tc.workers {
			t.Errorf("splitWorkers(%q) = (%q, %d), want (%q, %d)", tc.in, name, workers, tc.name, tc.workers)
		}
	}
}
