package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// readRecords reads the JSON lines an -all run printed.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// valuesOf collects one metric of one workload over a file's runs, in
// run order.
func valuesOf(recs []record, workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict judges side B against side A for one gated metric.
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the quartile spread of either side exceeds the bound, and
//	            not every run of B beats every run of A
//	better      B wins at least nine tenths of the runs paired in order,
//	            and the medians differ by more than A's quartile spread
//	same        none of the above: within the bound
func verdict(d metricDef, a, b []float64) string {
	sign := 1.0 // so that larger is worse
	if d.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	iqr := func(v []float64) float64 { return quantile(v, 0.75) - quantile(v, 0.25) }
	if sign*(mb-ma)/ma > d.Bound {
		return "worse"
	}
	worstB, bestA := slices.Max(b), slices.Min(a)
	if sign < 0 {
		worstB, bestA = slices.Min(b), slices.Max(a)
	}
	clean := sign*(worstB-bestA) < 0
	if (iqr(a)/ma > d.Bound || iqr(b)/mb > d.Bound) && !clean {
		return "unresolved"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if 10*wins >= 9*pairs && sign*(mb-ma) < -iqr(a) {
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// median with quartiles, the ratio with its base, and the verdict
// against the metric's bound; then whether the exact counts of the
// traced runs agree.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict\n")
	side := func(v []float64) string {
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(v), quantile(v, 0.25), quantile(v, 0.75), len(v))
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, wl.name, 0, d.Name), valuesOf(b, wl.name, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f of %.5g\t%.2f\t%s\n", wl.name, d.Name, d.Unit,
				side(va), side(vb), median(vb)/median(va), median(va), d.Bound, verdict(d, va, vb))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	differ := 0
	for _, wl := range workloads {
		for _, d := range perLayer {
			va, vb := valuesOf(a, wl.name, 1, d.Name), valuesOf(b, wl.name, 1, d.Name)
			if d.Unit != "count" || len(va) == 0 || len(vb) == 0 {
				continue
			}
			if va[0] != vb[0] {
				differ++
				fmt.Fprintf(w, "count differs: %s %s: A %v, B %v\n", wl.name, d.Name, va[0], vb[0])
			}
		}
	}
	fmt.Fprintf(w, "exact counts that differ between the traced runs: %d\n", differ)
	return nil
}
