package metrics

import "sync/atomic"

// counterLane is one rank's slot of a sharded counter or gauge, padded out
// to a cache line so neighbouring ranks' atomics do not false-share.
type counterLane struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a named monotonically increasing (per Add call; negative
// deltas are not rejected but not expected) sharded counter.
type Counter struct {
	name  string
	lanes []counterLane
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Add adds n in lane 0.
func (c *Counter) Add(n int64) { c.lanes[0].v.Add(n) }

// AddShard adds n in lane s (callers pass their rank id).
func (c *Counter) AddShard(s int, n int64) { c.lanes[s].v.Add(n) }

// Value returns the sum over all lanes.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.lanes {
		t += c.lanes[i].v.Load()
	}
	return t
}

// ShardValue returns lane s's value.
func (c *Counter) ShardValue(s int) int64 { return c.lanes[s].v.Load() }

// Shards returns the number of lanes.
func (c *Counter) Shards() int { return len(c.lanes) }

func (c *Counter) reset() {
	for i := range c.lanes {
		c.lanes[i].v.Store(0)
	}
}

// Gauge is a named last-write-wins value with one lane per rank (e.g. the
// current step number or simulation time of each rank).
type Gauge struct {
	name  string
	lanes []counterLane
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v in lane 0.
func (g *Gauge) Set(v int64) { g.lanes[0].v.Store(v) }

// SetShard stores v in lane s (callers pass their rank id).
func (g *Gauge) SetShard(s int, v int64) { g.lanes[s].v.Store(v) }

// Value returns lane 0's value.
func (g *Gauge) Value() int64 { return g.lanes[0].v.Load() }

// ShardValue returns lane s's value.
func (g *Gauge) ShardValue(s int) int64 { return g.lanes[s].v.Load() }

// Max returns the largest lane value (useful for "latest heartbeat").
func (g *Gauge) Max() int64 {
	m := g.lanes[0].v.Load()
	for i := 1; i < len(g.lanes); i++ {
		if v := g.lanes[i].v.Load(); v > m {
			m = v
		}
	}
	return m
}

// Shards returns the number of lanes.
func (g *Gauge) Shards() int { return len(g.lanes) }

func (g *Gauge) reset() {
	for i := range g.lanes {
		g.lanes[i].v.Store(0)
	}
}
