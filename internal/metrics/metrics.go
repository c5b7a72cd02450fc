// Package metrics provides the typed, goroutine-safe instrument registry
// used by the solvers, the message-passing runtime, and the experiment
// drivers: counters, gauges, and log-bucketed histograms with lock-free,
// allocation-free hot-path recording, plus the parallel-efficiency helpers
// the paper's tables rely on.
//
// The hot-path contract: resolve instruments once (Counter / Gauge /
// Histogram return stable handles; Reset zeroes them in place rather than
// replacing them) and record through the handle. Recording is a handful of
// atomic adds — no locks, no allocation — so the solver step stays at zero
// allocations with telemetry enabled. Instruments are sharded: a registry
// created with NewSharded(p) gives every rank its own lane, written
// independently and merged only at snapshot time. Count reads a counter by
// name without creating it.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Unit declares what a histogram's int64 values mean, driving the unit
// suffix and scaling of the Prometheus and JSON exports.
type Unit uint8

const (
	// UnitNone is a dimensionless value.
	UnitNone Unit = iota
	// UnitDuration is nanoseconds (exported as seconds).
	UnitDuration
	// UnitBytes is bytes.
	UnitBytes
)

// String returns the unit name used in JSON exports.
func (u Unit) String() string {
	switch u {
	case UnitDuration:
		return "duration"
	case UnitBytes:
		return "bytes"
	}
	return "none"
}

// MarshalJSON renders the unit as its name rather than a bare number.
func (u Unit) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", u.String())), nil
}

// UnmarshalJSON parses the name form written by MarshalJSON.
func (u *Unit) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "duration":
		*u = UnitDuration
	case "bytes":
		*u = UnitBytes
	default:
		*u = UnitNone
	}
	return nil
}

// Registry holds named instruments. Creation (the first access of each
// name) takes a mutex; recording through a handle never does. It is safe
// for concurrent use by the rank goroutines of one experiment.
type Registry struct {
	shards int

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty single-lane registry (the common case for
// one solver instance owned by one rank).
func NewRegistry() *Registry { return NewSharded(1) }

// NewSharded returns a registry whose instruments have one lane per rank:
// rank r records with the *Shard methods and lanes are merged at snapshot.
func NewSharded(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		shards:   shards,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Shards returns the number of lanes instruments are created with.
func (r *Registry) Shards() int { return r.shards }

// Counter returns the counter named name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return resolve(r, r.counters, name, func() *Counter {
		return &Counter{name: name, lanes: make([]counterLane, r.shards)}
	})
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return resolve(r, r.gauges, name, func() *Gauge {
		return &Gauge{name: name, lanes: make([]counterLane, r.shards)}
	})
}

// Histogram returns the histogram named name, creating it with the given
// unit on first use. A later call with a different unit returns the
// existing instrument unchanged: first registration wins.
func (r *Registry) Histogram(name string, unit Unit) *Histogram {
	return resolve(r, r.hists, name, func() *Histogram {
		return &Histogram{name: name, unit: unit, shards: make([]shardPtr, r.shards)}
	})
}

// resolve returns m[name], creating it with mk under the write lock on
// first use.
func resolve[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counters returns all counters, sorted by name.
func (r *Registry) Counters() []*Counter { return list(r, r.counters) }

// Gauges returns all gauges, sorted by name.
func (r *Registry) Gauges() []*Gauge { return list(r, r.gauges) }

// Histograms returns all histograms, sorted by name.
func (r *Registry) Histograms() []*Histogram { return list(r, r.hists) }

// list returns m's instruments sorted by name.
func list[T any](r *Registry, m map[string]*T) []*T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*T, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}

// Count returns counter `name` (0 if absent; the read does not create it).
func (r *Registry) Count(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// Reset zeroes every instrument in place. Handles resolved before the
// reset remain valid and keep recording into the same instruments.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}
