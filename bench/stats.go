package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// lowDecile is the statistic of every per-operation timing the
// benchmark gates. Interference on a shared host only ever slows an
// operation down, so the low end of the distribution is the program's
// own cost: over eight runs per workload its quartile spread was 1.3 to
// 5.7 % where the median's was 3.4 to 7.5 % (README.md has the table).
func lowDecile(v []float64) float64 { return quantile(v, 0.1) }

// tailPercentile picks the highest of the candidate percentiles 99, 95,
// 90, 75 that still has at least ten samples beyond it, and returns it
// with its value. Below 40 samples no candidate qualifies and it returns
// (0, NaN): a tail read off fewer than ten samples is one slow sample,
// not a percentile.
func tailPercentile(v []float64) (pct int, value float64) {
	for _, p := range []int{99, 95, 90, 75} {
		if len(v)-rank(p, len(v)) >= 10 {
			return p, percentile(v, p)
		}
	}
	return 0, math.NaN()
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples, in integers: ceil(p*n/100), at least 1.
func rank(p, n int) int { return max((p*n+99)/100, 1) }

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p int) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return sorted(v)[rank(p, len(v))-1]
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// finite reports whether x is an ordinary number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
