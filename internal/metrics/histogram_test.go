package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestBucketIdxMonotonic(t *testing.T) {
	// Every value maps to a bucket whose upper bound is >= the value, and
	// bucket indices never decrease as values grow.
	vals := []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		i := bucketIdx(v)
		if i < prev {
			t.Fatalf("bucketIdx(%d) = %d < previous %d", v, i, prev)
		}
		prev = i
		if up := bucketUpper(i); up < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", i, up, v)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, i)
		}
	}
	if bucketIdx(-5) != 0 {
		t.Fatal("negative value should clamp to bucket 0")
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Above the exact region the bucket upper bound overestimates the value
	// by at most 12.5% (one sub-bucket of an octave).
	for _, v := range []int64{16, 100, 999, 4096, 1 << 30, 1<<50 + 7} {
		up := bucketUpper(bucketIdx(v))
		if rel := float64(up-v) / float64(v); rel > 0.125 {
			t.Fatalf("value %d → upper %d, relative error %.3f > 0.125", v, up, rel)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", UnitDuration)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1us .. 1ms in ns
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1000 || s.Max != 1000000 {
		t.Fatalf("snapshot = %+v", s)
	}
	checks := []struct {
		q    float64
		want int64 // exact value at quantile
	}{{0, 1000}, {0.5, 500000}, {0.95, 950000}, {0.99, 990000}, {1, 1000000}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if rel := math.Abs(float64(got-c.want)) / float64(c.want); rel > 0.125 {
			t.Fatalf("q%.2f = %d, want %d ± 12.5%%", c.q, got, c.want)
		}
	}
	if mean := s.Mean(); math.Abs(mean-500500000.0/1000) > 1 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramShardsAndMerge(t *testing.T) {
	r := NewSharded(4)
	h := r.Histogram("phase", UnitDuration)
	for s := 0; s < 4; s++ {
		for i := 0; i < 10; i++ {
			h.ObserveShard(s, int64(s+1)*1000)
		}
	}
	if h.Count() != 40 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.SumShard(2) != 10*3000 {
		t.Fatalf("shard 2 sum = %d", h.SumShard(2))
	}
	if h.CountShard(3) != 10 {
		t.Fatalf("shard 3 count = %d", h.CountShard(3))
	}
	// Per-shard snapshots merged equal the full snapshot.
	var merged HistSnapshot
	for s := 0; s < 4; s++ {
		merged.Merge(h.ShardSnapshot(s))
	}
	full := h.Snapshot()
	if merged.Count != full.Count || merged.Sum != full.Sum ||
		merged.Min != full.Min || merged.Max != full.Max {
		t.Fatalf("merged %+v != full %+v", merged, full)
	}
	if full.Min != 1000 || full.Max != 4000 {
		t.Fatalf("min/max = %d/%d", full.Min, full.Max)
	}
}

func TestHistogramResetKeepsHandle(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", UnitDuration)
	c := r.Counter("n")
	g := r.Gauge("step")
	h.Observe(100)
	c.Add(5)
	g.Set(7)
	r.Reset()
	if h.Count() != 0 || h.Sum() != 0 || c.Value() != 0 || g.Value() != 0 {
		t.Fatal("reset did not zero instruments")
	}
	// Handles resolved before the reset must still record into the registry.
	h.Observe(50)
	c.Add(1)
	if r.Histogram("t", UnitDuration).Sum() != 50 || r.Count("n") != 1 {
		t.Fatalf("post-reset: total=%v count=%d", r.Histogram("t", UnitDuration).Sum(), r.Count("n"))
	}
	if s := h.Snapshot(); s.Min != 50 || s.Max != 50 {
		t.Fatalf("post-reset min/max = %d/%d", s.Min, s.Max)
	}
}

func TestEmptySnapshot(t *testing.T) {
	r := NewRegistry()
	s := r.Histogram("empty", UnitNone).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot = %+v q50=%d", s, s.Quantile(0.5))
	}
}

func TestLegacyTimerIsHistogram(t *testing.T) {
	// A timer is a duration histogram: observations through one handle
	// land in the instrument a second lookup returns, and its Sum is exact.
	r := NewRegistry()
	r.Histogram("exchange", UnitDuration).ObserveDuration(2 * time.Millisecond)
	r.Histogram("exchange", UnitDuration).ObserveDuration(4 * time.Millisecond)
	h := r.Histogram("exchange", UnitDuration)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := time.Duration(h.Sum()); got != 6*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
}

func TestObserveAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts differ under -race")
	}
	r := NewSharded(2)
	h := r.Histogram("hot", UnitDuration)
	c := r.Counter("msgs")
	g := r.Gauge("step")
	// AllocsPerRun warms up once, which absorbs the lazy shard allocation.
	if n := testing.AllocsPerRun(100, func() {
		h.ObserveShard(1, 12345)
		c.AddShard(1, 1)
		g.SetShard(1, 9)
	}); n != 0 {
		t.Fatalf("recording allocated %v allocs/op, want 0", n)
	}
	// Registry lookup of an existing instrument is also alloc-free.
	if n := testing.AllocsPerRun(100, func() {
		r.Histogram("hot", UnitDuration).ObserveDuration(time.Microsecond)
	}); n != 0 {
		t.Fatalf("lookup + ObserveDuration on existing timer allocated %v allocs/op", n)
	}
}
