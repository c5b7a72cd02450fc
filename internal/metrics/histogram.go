package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed (HDR-style) histogram. Values are nonnegative int64 in the
// caller's unit (nanoseconds for durations, bytes for sizes). Buckets:
//
//   - values 0..15 get one exact bucket each;
//   - every larger octave [2^o, 2^(o+1)) is split into 8 sub-buckets,
//     bounding the relative quantile error at 12.5% (1/8 of an octave)
//     while the bucket index stays a pure bit operation.
//
// Recording is an atomic fetch-add on the bucket plus count/sum adds and
// bounded CAS loops for min/max: no locks, no allocation, safe from any
// number of goroutines. For write-heavy multi-rank use the histogram is
// sharded: rank r records into lane r (lazily allocated, cache-line
// separated by virtue of being distinct allocations) and Snapshot merges
// the lanes.
const (
	histSubBits  = 3
	histSub      = 1 << histSubBits // sub-buckets per octave
	histFirstOct = histSubBits + 1  // octaves 0..3 are the exact region
	histExact    = 1 << histFirstOct
	// octaves histFirstOct..63 each contribute histSub buckets.
	histBuckets = histExact + (64-histFirstOct)*histSub
)

// bucketIdx maps a value to its bucket. Negative values clamp to 0.
func bucketIdx(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // >= histFirstOct
	sub := int(v>>(uint(o)-histSubBits)) & (histSub - 1)
	return histExact + (o-histFirstOct)*histSub + sub
}

// bucketUpper returns the largest value that maps to bucket i (the value
// reported for quantiles falling in the bucket, clamped by the true max).
func bucketUpper(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	o := histFirstOct + (i-histExact)/histSub
	sub := int64((i - histExact) % histSub)
	lower := (int64(histSub) + sub) << (uint(o) - histSubBits)
	width := int64(1) << (uint(o) - histSubBits)
	return lower + width - 1
}

// shardPtr is the lazily-filled slot of one histogram lane.
type shardPtr = atomic.Pointer[histShard]

// histShard is one lane's storage. Shards are allocated on first use so an
// instrument sized for many ranks costs nothing on ranks that never record.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until the first record
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (s *histShard) record(v int64) {
	if v < 0 {
		v = 0
	}
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketIdx(v)].Add(1)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Histogram is a named log-bucketed distribution with per-shard lanes.
type Histogram struct {
	name   string
	unit   Unit
	shards []atomic.Pointer[histShard]
}

// NewHistogram returns a one-lane histogram that belongs to no registry
// (the trace span store keeps one per span name).
func NewHistogram(name string, unit Unit) *Histogram {
	return &Histogram{name: name, unit: unit, shards: make([]shardPtr, 1)}
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Unit returns the value unit the histogram was registered with.
func (h *Histogram) Unit() Unit { return h.unit }

// shard returns lane s, allocating it on first use.
func (h *Histogram) shard(s int) *histShard {
	sh := h.shards[s].Load()
	if sh == nil {
		n := &histShard{}
		n.min.Store(math.MaxInt64)
		if h.shards[s].CompareAndSwap(nil, n) {
			return n
		}
		sh = h.shards[s].Load()
	}
	return sh
}

// Observe records v into lane 0.
func (h *Histogram) Observe(v int64) { h.shard(0).record(v) }

// ObserveShard records v into lane s (callers pass their rank id).
func (h *Histogram) ObserveShard(s int, v int64) { h.shard(s).record(v) }

// ObserveDuration records a duration (stored as nanoseconds) into lane 0.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Sum returns the total recorded value across all lanes.
func (h *Histogram) Sum() int64 {
	var t int64
	for i := range h.shards {
		if sh := h.shards[i].Load(); sh != nil {
			t += sh.sum.Load()
		}
	}
	return t
}

// Count returns the number of recorded values across all lanes.
func (h *Histogram) Count() int64 {
	var t int64
	for i := range h.shards {
		if sh := h.shards[i].Load(); sh != nil {
			t += sh.count.Load()
		}
	}
	return t
}

// SumShard returns lane s's recorded total.
func (h *Histogram) SumShard(s int) int64 {
	if sh := h.shards[s].Load(); sh != nil {
		return sh.sum.Load()
	}
	return 0
}

// CountShard returns lane s's recorded count.
func (h *Histogram) CountShard(s int) int64 {
	if sh := h.shards[s].Load(); sh != nil {
		return sh.count.Load()
	}
	return 0
}

// reset zeroes every lane in place; outstanding handles stay valid.
func (h *Histogram) reset() {
	for i := range h.shards {
		sh := h.shards[i].Load()
		if sh == nil {
			continue
		}
		sh.count.Store(0)
		sh.sum.Store(0)
		sh.max.Store(0)
		sh.min.Store(math.MaxInt64)
		for b := range sh.buckets {
			sh.buckets[b].Store(0)
		}
	}
}

// HistSnapshot is a point-in-time merged view of a histogram, carrying the
// bucket array so snapshots from different registries (e.g. per-rank solver
// registries) can be merged before computing quantiles.
type HistSnapshot struct {
	Name  string `json:"name"`
	Unit  Unit   `json:"unit"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`

	buckets []int64
}

// Snapshot returns the merged view of all lanes. Concurrent recording keeps
// running; the snapshot is internally consistent per counter, not across
// counters (sum/count may disagree by in-flight records).
func (h *Histogram) Snapshot() HistSnapshot {
	out := HistSnapshot{Name: h.name, Unit: h.unit}
	for i := range h.shards {
		out.Merge(h.ShardSnapshot(i))
	}
	return out
}

// ShardSnapshot returns lane s's view alone (used to attribute a sharded
// world instrument's lanes to their ranks).
func (h *Histogram) ShardSnapshot(s int) HistSnapshot {
	out := HistSnapshot{Name: h.name, Unit: h.unit}
	sh := h.shards[s].Load()
	if sh == nil {
		return out
	}
	if out.Count = sh.count.Load(); out.Count == 0 {
		return out
	}
	out.Sum, out.Min, out.Max = sh.sum.Load(), sh.min.Load(), sh.max.Load()
	out.buckets = make([]int64, histBuckets)
	for b := range sh.buckets {
		out.buckets[b] = sh.buckets[b].Load()
	}
	return out
}

// Merge folds another snapshot (same conceptual metric, e.g. the same
// phase recorded by a different rank's registry) into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min = math.MaxInt64
	}
	if s.buckets == nil {
		s.buckets = make([]int64, histBuckets)
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	for b, n := range o.buckets {
		s.buckets[b] += n
	}
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket holding the q-th recorded value, clamped to the true observed
// min/max so p0/p100 are exact. Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range s.buckets {
		cum += n
		if cum >= rank {
			v := bucketUpper(b)
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the average recorded value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
