// Package telemetry turns the metrics/trace machinery into a live
// observability layer: an embedded HTTP server exposing Prometheus-format
// and JSON metric snapshots, rank liveness, and the Go pprof/expvar
// endpoints; a crash flight recorder that dumps the most recent trace
// spans when a run dies; and a structured per-run manifest written at
// exit. Everything is read-side: the hot paths keep recording into their
// lock-free registries and span stores, and this package merges them only
// when something asks.
package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// source is one registered registry. A world source (rank == WorldSource)
// is sharded: lane i holds rank i's recordings. A solver source belongs
// entirely to one rank — per-rank solver registries stay separate so the
// solvers' own cross-rank reductions keep seeing only their rank's data —
// and the server attributes all of it to that rank at merge time.
type source struct {
	name string
	rank int
	reg  *metrics.Registry
}

// WorldSource marks a registry whose shards map one-to-one onto ranks.
const WorldSource = -1

// Server merges any number of registered registries and one tracer's
// span aggregates into one live view and serves it over HTTP.
// Registration and scraping are mutex-guarded; the registries and
// aggregates themselves are read with atomic loads, so scraping never
// blocks the ranks that are recording.
type Server struct {
	start time.Time

	mu      sync.Mutex
	sources []source
	tracer  *trace.Tracer

	ln   net.Listener
	http *http.Server
}

// NewServer returns a server with no sources and no listener.
func NewServer() *Server {
	return &Server{start: time.Now()}
}

// Register adds a single-rank registry (e.g. one solver instance) under
// the given rank id.
func (s *Server) Register(name string, rank int, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.sources = append(s.sources, source{name: name, rank: rank, reg: reg})
	s.mu.Unlock()
}

// RegisterWorld adds a sharded registry whose lane i belongs to rank i
// (the registry handed to mpi.RunErrOpt).
func (s *Server) RegisterWorld(reg *metrics.Registry) {
	s.Register("world", WorldSource, reg)
}

// RegisterTracer makes tr the source of the phase series: each span name
// of its running aggregates is exported as the duration histogram
// "phase_<name>", with tr's per-rank sums. One tracer at a time; a later
// call replaces it.
func (s *Server) RegisterTracer(tr *trace.Tracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

// ResetSources drops all registered sources and the tracer — drivers that
// sweep rank counts call this between table rows so each run exports
// fresh data.
func (s *Server) ResetSources() {
	s.mu.Lock()
	s.sources = nil
	s.tracer = nil
	s.mu.Unlock()
}

// CounterView is one counter merged across sources.
type CounterView struct {
	Name    string        `json:"name"`
	Total   int64         `json:"total"`
	PerRank map[int]int64 `json:"per_rank,omitempty"`
}

// GaugeView is one gauge's per-rank values.
type GaugeView struct {
	Name    string        `json:"name"`
	PerRank map[int]int64 `json:"per_rank,omitempty"`
}

// HistView is one histogram merged across sources, with the summary
// statistics precomputed and the per-rank totals kept for imbalance math.
type HistView struct {
	Name         string        `json:"name"`
	Unit         metrics.Unit  `json:"unit"`
	Count        int64         `json:"count"`
	Sum          int64         `json:"sum"`
	Min          int64         `json:"min"`
	Max          int64         `json:"max"`
	P50          int64         `json:"p50"`
	P95          int64         `json:"p95"`
	P99          int64         `json:"p99"`
	Mean         float64       `json:"mean"`
	PerRankSum   map[int]int64 `json:"per_rank_sum,omitempty"`
	PerRankCount map[int]int64 `json:"per_rank_count,omitempty"`
}

// Imbalance returns the paper's max/avg ratio of the per-rank sums over
// all ranks of the run, a rank that recorded nothing counting as zero — the
// definition of trace.PhaseStat (1 for empty or perfectly even
// distributions).
func (h *HistView) Imbalance(ranks int) float64 {
	var total, hi int64
	for _, v := range h.PerRankSum {
		total += v
		hi = max(hi, v)
	}
	avg := float64(total) / float64(max(ranks, len(h.PerRankSum), 1))
	if avg <= 0 {
		return 1
	}
	return float64(hi) / avg
}

// Snapshot is one merged point-in-time view of every source.
type Snapshot struct {
	UptimeSeconds float64       `json:"uptime_seconds"`
	Ranks         int           `json:"ranks"`
	Counters      []CounterView `json:"counters"`
	Gauges        []GaugeView   `json:"gauges"`
	Histograms    []HistView    `json:"histograms"`
}

// Gather merges all registered sources into one snapshot. Instruments
// with the same name in different sources are folded together (that is
// the point: per-rank solver registries all export "elements_shipped",
// and the merged view is the cross-rank total).
func (s *Server) Gather() Snapshot {
	s.mu.Lock()
	sources := append([]source(nil), s.sources...)
	tr := s.tracer
	s.mu.Unlock()

	snap := Snapshot{UptimeSeconds: time.Since(s.start).Seconds()}
	counters := map[string]*CounterView{}
	gauges := map[string]*GaugeView{}
	type histAcc struct {
		view HistView
		snap metrics.HistSnapshot
	}
	hists := map[string]*histAcc{}
	hist := func(name string, unit metrics.Unit) *histAcc {
		ha := hists[name]
		if ha == nil {
			ha = &histAcc{view: HistView{
				Name: name, Unit: unit,
				PerRankSum: map[int]int64{}, PerRankCount: map[int]int64{},
			}}
			hists[name] = ha
		}
		return ha
	}
	seenRank := func(r int) {
		if r+1 > snap.Ranks {
			snap.Ranks = r + 1
		}
	}

	for _, src := range sources {
		// A world registry's lane i is rank i; a solver registry's one
		// lane is its rank.
		rank := func(lane int) int {
			if src.rank == WorldSource {
				return lane
			}
			return src.rank
		}
		for _, c := range src.reg.Counters() {
			cv := counters[c.Name()]
			if cv == nil {
				cv = &CounterView{Name: c.Name(), PerRank: map[int]int64{}}
				counters[c.Name()] = cv
			}
			for lane := 0; lane < c.Shards(); lane++ {
				v := c.ShardValue(lane)
				cv.Total += v
				cv.PerRank[rank(lane)] += v
				seenRank(rank(lane))
			}
		}
		for _, g := range src.reg.Gauges() {
			gv := gauges[g.Name()]
			if gv == nil {
				gv = &GaugeView{Name: g.Name(), PerRank: map[int]int64{}}
				gauges[g.Name()] = gv
			}
			for lane := 0; lane < g.Shards(); lane++ {
				gv.PerRank[rank(lane)] = g.ShardValue(lane)
				seenRank(rank(lane))
			}
		}
		for _, h := range src.reg.Histograms() {
			ha := hist(h.Name(), h.Unit())
			for lane := 0; lane < src.reg.Shards(); lane++ {
				seenRank(rank(lane))
				if cnt := h.CountShard(lane); cnt > 0 {
					ha.snap.Merge(h.ShardSnapshot(lane))
					ha.view.PerRankSum[rank(lane)] += h.SumShard(lane)
					ha.view.PerRankCount[rank(lane)] += cnt
				}
			}
		}
	}

	seenRank(tr.NumRanks() - 1)
	for _, st := range tr.Totals() {
		if st.Dist == nil {
			continue // fault marks have no duration
		}
		ha := hist("phase_"+st.Name, metrics.UnitDuration)
		ha.snap.Merge(st.Dist.Snapshot())
		for r := 0; r < tr.NumRanks(); r++ {
			if n, sum, _ := st.Rank(r); n > 0 {
				ha.view.PerRankSum[r] += int64(sum)
				ha.view.PerRankCount[r] += n
			}
		}
	}

	for _, cv := range counters {
		snap.Counters = append(snap.Counters, *cv)
	}
	for _, gv := range gauges {
		snap.Gauges = append(snap.Gauges, *gv)
	}
	for _, ha := range hists {
		v := &ha.view
		v.Count = ha.snap.Count
		v.Sum = ha.snap.Sum
		v.Min = ha.snap.Min
		v.Max = ha.snap.Max
		v.P50 = ha.snap.Quantile(0.5)
		v.P95 = ha.snap.Quantile(0.95)
		v.P99 = ha.snap.Quantile(0.99)
		v.Mean = ha.snap.Mean()
		snap.Histograms = append(snap.Histograms, *v)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// Handler returns the server's HTTP mux: /metrics (Prometheus text),
// /metrics.json, /healthz, /debug/pprof/*, /debug/vars.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, s.Gather())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Gather())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Health())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// Health is the /healthz payload: process uptime, per-rank progress read
// from the well-known gauges ("step", "sim_time_us", "heartbeat_unix_ns"
// — solvers publish them each time step), and the fault counters of an
// active chaos run.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ranks         int     `json:"ranks"`

	// Step is each rank's last reported time step.
	Step map[int]int64 `json:"step,omitempty"`
	// SimTime is each rank's simulation time in seconds.
	SimTime map[int]float64 `json:"sim_time,omitempty"`
	// HeartbeatAgeSeconds is how long ago each rank last reported (wall
	// clock). Large values on a subset of ranks mean stragglers or death.
	HeartbeatAgeSeconds map[int]float64 `json:"heartbeat_age_seconds,omitempty"`

	Faults map[string]int64 `json:"faults,omitempty"`
}

// Health assembles the liveness view from the current snapshot.
func (s *Server) Health() Health {
	snap := s.Gather()
	h := Health{
		Status:        "ok",
		UptimeSeconds: snap.UptimeSeconds,
		Ranks:         snap.Ranks,
	}
	now := time.Now().UnixNano()
	for _, g := range snap.Gauges {
		switch g.Name {
		case "step":
			h.Step = g.PerRank
		case "sim_time_us":
			h.SimTime = map[int]float64{}
			for r, v := range g.PerRank {
				h.SimTime[r] = float64(v) / 1e6
			}
		case "heartbeat_unix_ns":
			h.HeartbeatAgeSeconds = map[int]float64{}
			for r, v := range g.PerRank {
				if v == 0 {
					continue
				}
				h.HeartbeatAgeSeconds[r] = float64(now-v) / 1e9
			}
		}
	}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "fault_") {
			if h.Faults == nil {
				h.Faults = map[string]int64{}
			}
			h.Faults[c.Name] = c.Total
		}
	}
	return h
}

// ListenAndServe binds addr (":0" picks a free port) and serves the
// handler in a background goroutine. It returns the bound address so
// drivers can print the real port.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// shutdownGrace bounds how long Close waits for in-flight scrapes. A
// last /metrics pull racing process exit deserves its response — a
// Prometheus scrape cut mid-body records a gap at exactly the most
// interesting moment of the run — but a stuck client must not wedge the
// driver's exit path.
const shutdownGrace = 2 * time.Second

// Close gracefully stops the server (no-op if ListenAndServe was never
// called): the listener closes immediately, in-flight requests get
// shutdownGrace to complete, and only then are lingering connections cut.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		// Grace expired with a request still running; fall back to the
		// hard close so exit cannot hang.
		return s.http.Close()
	}
	return nil
}
