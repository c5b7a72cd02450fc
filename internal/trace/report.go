package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// PhaseStat aggregates one span name across all ranks. Min/Median/Max/Avg
// are over the per-rank *totals* (a rank that never ran the phase counts
// as zero, which is exactly what makes stragglers visible). Imbalance is
// the paper's max/avg ratio: 1.0 means perfectly even, 2.0 means the
// slowest rank spent twice the average. WaitShare is the fraction of the
// phase's total time spent blocked waiting for messages, as accumulated by
// the runtime's receive-wait attribution.
type PhaseStat struct {
	Name      string
	Cat       Category
	Count     int // completed spans across all ranks
	Min       time.Duration
	Median    time.Duration
	Max       time.Duration
	Avg       time.Duration
	Total     time.Duration
	Wait      time.Duration
	Imbalance float64
	WaitShare float64
}

// Totals returns the running aggregates in first-use order; wait spans
// are not among them. Unlike Events it may be called while the ranks
// record: a concurrent read sees every span completed before it, and
// possibly some completed during it.
func (t *Tracer) Totals() []*SpanStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.stats)
}

// Aggregate folds the running aggregates into per-phase statistics
// across ranks, ordered by descending total time. It covers the whole
// run, also on a ring tracer, at O(names × ranks). CatWait leaf spans are
// not reported as phases of their own (their time is already attributed
// to the enclosing spans' WaitShare).
func (t *Tracer) Aggregate() []PhaseStat {
	if t == nil {
		return nil
	}
	totals := t.Totals()
	out := make([]PhaseStat, 0, len(totals))
	p := len(t.ranks)
	for _, s := range totals {
		st := PhaseStat{Name: s.Name, Cat: s.Cat}
		sorted := make([]time.Duration, p) // per-rank totals
		for r := range sorted {
			n, sum, wait := s.Rank(r)
			st.Count += int(n)
			st.Total += sum
			st.Wait += wait
			sorted[r] = sum
		}
		slices.Sort(sorted)
		st.Min = sorted[0]
		st.Max = sorted[p-1]
		st.Median = sorted[p/2]
		if p%2 == 0 {
			st.Median = (sorted[p/2-1] + sorted[p/2]) / 2
		}
		st.Avg = st.Total / time.Duration(p)
		// A zero-duration phase (clock granularity, or spans that ran but
		// measured 0) is perfectly balanced by definition; dividing would
		// produce NaN. Single-rank runs fall out naturally: max == avg.
		st.Imbalance = 1
		if st.Avg > 0 {
			st.Imbalance = float64(st.Max) / float64(st.Avg)
		}
		if st.Total > 0 {
			st.WaitShare = float64(st.Wait) / float64(st.Total)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Phase returns the aggregate statistics for one span name (CatPhase or
// CatComm), or a zero PhaseStat with ok == false if the name never ran.
func (t *Tracer) Phase(name string) (PhaseStat, bool) {
	for _, st := range t.Aggregate() {
		if st.Name == name {
			return st, true
		}
	}
	return PhaseStat{}, false
}

// WriteReport prints the per-phase aggregate as a text table: per-rank
// min/median/max/avg wall time, the max/avg imbalance ratio, and the share
// of the phase spent blocked in receives — the three signals needed to
// decide whether a phase is compute-bound, load-imbalanced, or
// communication-bound before touching it.
func (t *Tracer) WriteReport(w io.Writer) error {
	if t == nil {
		return nil
	}
	stats := t.Aggregate()
	if len(stats) == 0 {
		_, err := fmt.Fprintln(w, "trace: no spans recorded")
		return err
	}
	_, err := fmt.Fprintf(w, "%-24s %6s %10s %10s %10s %10s %9s %7s\n",
		"phase", "spans", "min", "median", "max", "avg", "imb(x/a)", "wait%")
	if err != nil {
		return err
	}
	for _, st := range stats {
		name := st.Name
		if st.Cat == CatComm {
			name = name + " [comm]"
		}
		_, err := fmt.Fprintf(w, "%-24s %6d %10s %10s %10s %10s %9.2f %6.1f%%\n",
			name, st.Count,
			fmtDur(st.Min), fmtDur(st.Median), fmtDur(st.Max), fmtDur(st.Avg),
			st.Imbalance, 100*st.WaitShare)
		if err != nil {
			return err
		}
	}
	return nil
}

// fmtDur renders durations compactly with millisecond-scale precision,
// keeping the report columns aligned across magnitudes.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/1e3)
	case d == 0:
		return "0"
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}
