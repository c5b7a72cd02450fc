package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent indexes the same lane's spans (-1
// for a root); after merge it indexes the merged slice. All spans of one
// repetition/block/step/job share Op. The layer is the name up to the
// first dot ("core.balance" -> "core").
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rank   int    `json:"rank"`
	Op     int    `json:"op"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// opRoot is the name of the root span of every operation; its self time
// is the part of the operation no layer span covers.
const opRoot = "bench.op"

// lane is the span buffer of one rank goroutine (or one HTTP client). It
// is owned by that goroutine: no locks, and no allocation beyond slice
// growth. A nil lane, or one switched off, records nothing, so workload
// code calls it unconditionally.
type lane struct {
	rank  int
	t0    time.Time
	on    bool
	op    int
	spans []span
	open  []int
}

func (l *lane) now() int64 { return int64(time.Since(l.t0)) }

// startOp labels the spans that follow with operation op and switches
// recording on or off for it.
func (l *lane) startOp(op int, record bool) {
	if l != nil {
		l.on, l.op = record, op
	}
}

// recording reports whether spans are being kept.
func (l *lane) recording() bool { return l != nil && l.on }

// begin opens a span under the innermost open one.
func (l *lane) begin(name string) {
	if !l.recording() {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: parent, Rank: l.rank, Op: l.op})
}

// end closes the innermost open span.
func (l *lane) end() {
	if !l.recording() {
		return
	}
	n := len(l.open) - 1
	l.spans[l.open[n]].End = l.now()
	l.open = l.open[:n]
}

// do records fn as one span.
func (l *lane) do(name string, fn func()) {
	l.begin(name)
	fn()
	l.end()
}

// add records a span whose bounds were observed elsewhere (a server-side
// interval reported back to the client) under the innermost open span.
func (l *lane) add(name string, start, end time.Time) {
	if !l.recording() {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
		Parent: parent, Rank: l.rank, Op: l.op})
}

// recorder owns one lane per rank. A nil recorder hands out nil lanes.
type recorder struct {
	lanes []*lane
}

// newRecorder returns a recorder for a traced run and nil otherwise.
func newRecorder(cfg config, ranks int) *recorder {
	if !cfg.trace {
		return nil
	}
	r := &recorder{}
	t0 := time.Now()
	for i := 0; i < ranks; i++ {
		r.lanes = append(r.lanes, &lane{rank: i, t0: t0})
	}
	return r
}

func (r *recorder) lane(rank int) *lane {
	if r == nil {
		return nil
	}
	return r.lanes[rank]
}

// merge concatenates the lanes, rebasing parent indices.
func (r *recorder) merge() []span {
	var all []span
	for _, l := range r.lanes {
		base := len(all)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may nest, abut or
// overlap each other; covered time is the measure of their union clipped
// to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		edge := s.Start
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, st := range selfTimes(spans) {
		out[spans[i].layer()] += st
	}
	return out
}

// unaccountedShare is the share of operation wall time that no layer
// span accounts for: the self time of the operation roots over their
// duration. 0 when the trace has no roots.
func unaccountedShare(spans []span) float64 {
	var self, total int64
	for i, st := range selfTimes(spans) {
		if spans[i].Name == opRoot {
			self += st
			total += spans[i].End - spans[i].Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// spanTotal sums the durations of the spans with the given name.
func spanTotal(spans []span, name string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}
