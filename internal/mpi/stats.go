package mpi

import (
	"reflect"
	"strconv"
	"sync"
	"time"
)

// Stats records per-rank communication counters on both sides of the wire.
// The paper characterizes its algorithms partly by communication volume
// (e.g. Balance and Ghost "scale roughly with the number of octants on the
// partition boundaries"); these counters let tests and benchmarks verify
// that property. RecvWait is the total time the rank spent blocked in
// receives (point-to-point and inside collectives), which is the
// load-imbalance signal: a rank that arrives early at a collective waits
// there for the stragglers.
type Stats struct {
	MsgsSent   int64
	BytesSent  int64
	MsgsRecvd  int64
	BytesRecvd int64
	RecvWait   time.Duration

	// ByTag breaks the counters down by message tag, separating e.g. the
	// Balance demand exchange from the Ghost shipment on the same run.
	// Internal collective tags are negative (see TagName).
	ByTag map[int]*TagStats
}

// TagStats is the per-tag slice of the communication counters.
type TagStats struct {
	MsgsSent   int64
	BytesSent  int64
	MsgsRecvd  int64
	BytesRecvd int64
	RecvWait   time.Duration
}

// tag returns the per-tag bucket, creating it on first use. Stats are
// rank-private (each rank goroutine owns one slot of World.stats), so no
// locking is needed.
func (s *Stats) tag(t int) *TagStats {
	if s.ByTag == nil {
		s.ByTag = make(map[int]*TagStats)
	}
	ts := s.ByTag[t]
	if ts == nil {
		ts = &TagStats{}
		s.ByTag[t] = ts
	}
	return ts
}

// Stats returns a deep copy of the calling rank's counters.
func (c *Comm) Stats() Stats {
	st := c.world.stats[c.rank]
	if st.ByTag != nil {
		m := make(map[int]*TagStats, len(st.ByTag))
		for t, ts := range st.ByTag {
			cp := *ts
			m[t] = &cp
		}
		st.ByTag = m
	}
	return st
}

// TagStat returns a copy of the calling rank's counters for a single tag,
// without deep-copying the whole per-tag map (cheap enough for phase-level
// before/after deltas).
func (c *Comm) TagStat(tag int) TagStats {
	if ts := c.world.stats[c.rank].ByTag[tag]; ts != nil {
		return *ts
	}
	return TagStats{}
}

// ResetStats zeroes the calling rank's counters.
func (c *Comm) ResetStats() { c.world.stats[c.rank] = Stats{} }

// TagName names the internal collective tags for reports; user tags are
// rendered numerically.
func TagName(tag int) string {
	switch tag {
	case tagBarrier:
		return "barrier"
	case tagBcast:
		return "bcast"
	case tagGather:
		return "gather"
	case tagScatter:
		return "scatter"
	case tagAllgather:
		return "allgather"
	case tagAllreduce:
		return "allreduce"
	case tagExScan:
		return "exscan"
	case tagSparseUp:
		return "sparse.up"
	case tagSparseDown:
		return "sparse.down"
	}
	if tag < 0 {
		return "internal"
	}
	return "tag" + strconv.Itoa(tag)
}

// payloadBytes estimates the wire size of a payload for the statistics.
// Common scalar and flat-slice payloads hit the explicit fast paths; a
// Sizer payload reports its own size; everything else — octant slices,
// demand lists, nested structs, maps — is sized by structural reflection
// (element wire size x length for slices of pointer-free element types,
// recursion otherwise), so forest payloads are accounted at their real
// volume instead of as bare envelopes.
func payloadBytes(p any) int64 {
	const envelope = 16 // from, tag, header
	switch v := p.(type) {
	case nil:
		return envelope
	case []byte:
		return envelope + int64(len(v))
	case []int8:
		return envelope + int64(len(v))
	case []int32:
		return envelope + 4*int64(len(v))
	case []float32:
		return envelope + 4*int64(len(v))
	case []int:
		return envelope + 8*int64(len(v))
	case []int64:
		return envelope + 8*int64(len(v))
	case []uint64:
		return envelope + 8*int64(len(v))
	case []float64:
		return envelope + 8*int64(len(v))
	case int, int32, int64, uint64, float64, bool:
		return envelope + 8
	case Sizer:
		return envelope + v.WireBytes()
	default:
		return envelope + reflectBytes(reflect.ValueOf(p), 0)
	}
}

// Sizer lets payload types report their wire size for the statistics,
// overriding the structural estimate.
type Sizer interface {
	WireBytes() int64
}

// reflectBytes estimates the wire size of an arbitrary payload value by
// structural traversal. depth bounds pathological nesting.
func reflectBytes(v reflect.Value, depth int) int64 {
	if depth > 16 {
		return 0
	}
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		n := v.Len()
		if n == 0 {
			return 0
		}
		if sz, fixed := fixedWireSize(v.Type().Elem()); fixed {
			return int64(n) * sz
		}
		var sum int64
		for i := 0; i < n; i++ {
			sum += reflectBytes(v.Index(i), depth+1)
		}
		return sum
	case reflect.Map:
		keySz, keyFixed := fixedWireSize(v.Type().Key())
		valSz, valFixed := fixedWireSize(v.Type().Elem())
		if keyFixed && valFixed {
			return int64(v.Len()) * (keySz + valSz)
		}
		var sum int64
		iter := v.MapRange()
		for iter.Next() {
			if keyFixed {
				sum += keySz
			} else {
				sum += reflectBytes(iter.Key(), depth+1)
			}
			if valFixed {
				sum += valSz
			} else {
				sum += reflectBytes(iter.Value(), depth+1)
			}
		}
		return sum
	case reflect.Struct:
		if sz, fixed := fixedWireSize(v.Type()); fixed {
			return sz
		}
		var sum int64
		for i := 0; i < v.NumField(); i++ {
			sum += reflectBytes(v.Field(i), depth+1)
		}
		return sum
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return reflectBytes(v.Elem(), depth+1)
	case reflect.String:
		return int64(v.Len())
	default:
		if sz, fixed := fixedWireSize(v.Type()); fixed {
			return sz
		}
		return 0
	}
}

// wireSizeCache memoizes fixedWireSize results; payloadBytes runs on both
// sides of every message, concurrently across rank goroutines.
var wireSizeCache sync.Map // reflect.Type -> int64 (negative: not fixed)

// fixedWireSize returns the wire size shared by all values of t when that
// size is value-independent: scalars, and arrays/structs composed of
// them. Types reaching through pointers, slices, maps, strings, or
// interfaces are not fixed and must be traversed per value.
func fixedWireSize(t reflect.Type) (int64, bool) {
	if sz, ok := wireSizeCache.Load(t); ok {
		s := sz.(int64)
		return s, s >= 0
	}
	sz, fixed := computeFixedWireSize(t)
	if !fixed {
		wireSizeCache.Store(t, int64(-1))
		return 0, false
	}
	wireSizeCache.Store(t, sz)
	return sz, true
}

func computeFixedWireSize(t reflect.Type) (int64, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1, true
	case reflect.Int16, reflect.Uint16:
		return 2, true
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4, true
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64,
		reflect.Float64, reflect.Uintptr:
		return 8, true
	case reflect.Complex64:
		return 8, true
	case reflect.Complex128:
		return 16, true
	case reflect.Array:
		sz, ok := fixedWireSize(t.Elem())
		if !ok {
			return 0, false
		}
		return sz * int64(t.Len()), true
	case reflect.Struct:
		var sum int64
		for i := 0; i < t.NumField(); i++ {
			sz, ok := fixedWireSize(t.Field(i).Type)
			if !ok {
				return 0, false
			}
			sum += sz
		}
		return sum, true
	}
	return 0, false
}
