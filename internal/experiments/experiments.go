// Package experiments drives the reproductions of every table and figure
// in the paper's evaluation (Figures 4, 5, 7, 9, 10), one runner per
// figure; the cmd tools print the tables. Core counts are emulated by
// goroutine ranks of the in-process message-passing runtime (see DESIGN.md
// for the substitution rationale); the reported *shapes* — who dominates,
// normalized costs, parallel efficiencies — are the reproduction targets.
//
// Efficiency semantics on a serialized host: the rank goroutines share the
// machine's physical cores, so wall-clock speedup with rank count is not
// measurable. What is measurable — and is exactly the algorithmic quantity
// the paper's efficiency isolates — is the growth of *work per octant*
// with rank count: communication volume, duplicated boundary work, and
// imbalance all surface as a rising normalized (seconds per million
// octants, aggregated) cost. Perfect parallel algorithms keep it flat, so
// weak-scaling efficiency is base-normalized-cost / scaled-normalized-cost,
// and strong-scaling efficiency is base-wall-time / scaled-wall-time (the
// total work is fixed, so flat wall time on a serialized host means no
// added overhead).
package experiments

import (
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/advect"
	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/rhea"
	"repro/internal/seismic"
	"repro/internal/trace"
)

// Obs bundles the optional observability hooks an experiment threads
// through its run: a tracer for spans, a sharded world registry the
// message-passing runtime records live transport metrics into, and a
// callback handing the caller each rank's solver registry as it is
// created (the telemetry server registers these as per-rank sources).
// The zero Obs disables everything.
type Obs struct {
	Tracer *trace.Tracer
	World  *metrics.Registry
	OnRank func(name string, rank int, met *metrics.Registry)
	// Workers is the per-rank kernel worker count; 0 means the process
	// default (AMR_WORKERS, else 1).
	Workers int
}

// runOptions translates the hooks into message-runtime run options.
func (o Obs) runOptions() mpi.RunOptions {
	return mpi.RunOptions{Tracer: o.Tracer, Metrics: o.World, Workers: o.Workers}
}

// rank invokes the per-rank registry callback if one is set.
func (o Obs) rank(name string, rank int, met *metrics.Registry) {
	if o.OnRank != nil {
		o.OnRank(name, rank, met)
	}
}

// FractalRefiner reproduces the Figure 4 workload: "a fractal-type mesh
// defined by recursively subdividing octants with child identifiers 0, 3,
// 5 and 6 while not exceeding four levels of size difference".
func FractalRefiner(maxLevel int8) func(octant.Octant) bool {
	return func(o octant.Octant) bool {
		if o.Level >= maxLevel {
			return false
		}
		switch o.ChildID() {
		case 0, 3, 5, 6:
			return true
		}
		return false
	}
}

// Fig4Row is one core-count row of the Figure 4 weak-scaling experiment.
type Fig4Row struct {
	Ranks     int
	Level     int8
	Octants   int64
	PerRank   float64 // millions of octants per rank
	NewSec    float64
	RefineSec float64
	PartSec   float64
	BalSec    float64
	GhostSec  float64
	NodesSec  float64
	// Normalized seconds per million octants processed (aggregate), the
	// serialized-host analogue of the paper's bottom-chart metric for
	// Balance and Nodes: flat values mean no parallel overhead.
	BalNorm   float64
	NodesNorm float64

	// BalanceRounds is the ripple-round count Balance needed.
	BalanceRounds int

	// PartBytes, BalBytes, and GhostBytes are the aggregate payload bytes
	// sent across all ranks on the Partition, Balance, and Ghost exchange
	// tags (from the per-tag mpi.Stats), sized at real octant/demand wire
	// volume. The paper's claim that Balance and Ghost communication
	// "scales roughly with the number of octants on the partition
	// boundaries" is checked against these columns. The matching *Msgs
	// columns count point-to-point payload messages on the same tags:
	// sub-linear growth in messages per rank is the signature of the
	// recursive boundary-only algorithms (an all-pairs scheme would grow
	// them quadratically).
	PartBytes  int64
	BalBytes   int64
	GhostBytes int64
	PartMsgs   int64
	BalMsgs    int64
	GhostMsgs  int64

	// MetaBytes is the resident globally shared meta-data per rank: the
	// P+1 curve markers plus two scalar counters. O(P) bytes, independent
	// of the octant count (paper §2: only O(bytes) shared state).
	MetaBytes int64

	// PhaseImb and PhaseWait are filled when the run is traced: per phase
	// (new, refine, partition, balance, ghost, nodes), the max/avg rank
	// imbalance and the fraction of the phase spent blocked in receives.
	PhaseImb  map[string]float64
	PhaseWait map[string]float64

	// PeakRSS and Live are read after each phase, in Fig4Phases order: the
	// process's peak resident set so far (VmHWM; 0 where the kernel does
	// not report it) and its live heap after a forced collection, in
	// bytes. The collection runs outside the phase walls.
	PeakRSS [6]int64
	Live    [6]int64
}

// Fig4Phases names the six pipeline phases in execution order, matching
// both the paper's Figure 4 legend and the span names the core algorithms
// emit.
var Fig4Phases = []string{"new", "refine", "partition", "balance", "ghost", "nodes"}

// TotalAMRSec returns the summed runtime of all p4est algorithms.
func (r Fig4Row) TotalAMRSec() float64 {
	return r.NewSec + r.RefineSec + r.PartSec + r.BalSec + r.GhostSec + r.NodesSec
}

// timedPhase runs fn between barriers and returns the slowest rank's time.
func timedPhase(c *mpi.Comm, fn func()) float64 {
	c.Barrier()
	t0 := time.Now()
	fn()
	local := time.Since(t0).Seconds()
	return mpi.AllreduceMax(c, local)
}

// liveHeap collects garbage and returns the bytes of live heap left.
func liveHeap() int64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// peakRSS returns the process's peak resident set size (VmHWM in
// /proc/self/status) in bytes, 0 where the kernel does not report it.
func peakRSS() int64 {
	b, _ := os.ReadFile("/proc/self/status") // absent off Linux: reported as 0
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64) // malformed: 0, not reported
			return n << 10
		}
	}
	return 0
}

// RunFig4 executes the six-octree fractal workload on the given rank count
// with the given base refinement level (the paper multiplies the rank
// count by eight for each level increment to keep octants per rank
// constant). With a tracer in obs (created with trace.New(ranks)) the
// returned row's PhaseImb/PhaseWait columns are filled from the trace
// aggregation.
func RunFig4(ranks int, level int8, obs Obs) Fig4Row {
	tr := obs.Tracer
	var row Fig4Row
	conn := connectivity.SixRotCubes()
	mpi.RunOpt(ranks, obs.runOptions(), func(c *mpi.Comm) {
		var f *core.Forest
		var g *core.GhostLayer
		var nd *core.Nodes
		r := Fig4Row{Ranks: ranks, Level: level}
		phases := [6]struct {
			sec *float64
			run func()
		}{
			{&r.NewSec, func() { f = core.New(c, conn, level) }},
			{&r.RefineSec, func() { f.Refine(true, level+4, FractalRefiner(level+4)) }},
			{&r.PartSec, func() { f.Partition() }},
			{&r.BalSec, func() { f.Balance(core.BalanceFull) }},
			{&r.GhostSec, func() { g = f.Ghost() }},
			{&r.NodesSec, func() { nd = f.Nodes(g) }},
		}
		for i, ph := range phases {
			*ph.sec = timedPhase(c, ph.run)
			if c.Rank() == 0 { // the other ranks wait in the next phase's barrier
				r.Live[i], r.PeakRSS[i] = liveHeap(), peakRSS()
			}
		}
		runtime.KeepAlive(nd)
		r.Octants = f.NumGlobal()
		r.PerRank = float64(r.Octants) / float64(ranks) / 1e6
		r.BalanceRounds = f.BalanceRounds
		st := c.Stats()
		byTag := func(tag int) (bytes, msgs int64) {
			if ts := st.ByTag[tag]; ts != nil {
				return ts.BytesSent, ts.MsgsSent
			}
			return 0, 0
		}
		pb, pm := byTag(core.TagPartition)
		bb, bm := byTag(core.TagBalance)
		gb, gm := byTag(core.TagGhost)
		r.PartBytes = mpi.AllreduceSum(c, pb)
		r.BalBytes = mpi.AllreduceSum(c, bb)
		r.GhostBytes = mpi.AllreduceSum(c, gb)
		r.PartMsgs = mpi.AllreduceSum(c, pm)
		r.BalMsgs = mpi.AllreduceSum(c, bm)
		r.GhostMsgs = mpi.AllreduceSum(c, gm)
		r.MetaBytes = f.MetaBytes()
		if r.Octants > 0 {
			moct := float64(r.Octants) / 1e6
			r.BalNorm = r.BalSec / moct
			r.NodesNorm = r.NodesSec / moct
		}
		if c.Rank() == 0 {
			row = r
		}
	})
	if tr != nil {
		row.PhaseImb = make(map[string]float64, len(Fig4Phases))
		row.PhaseWait = make(map[string]float64, len(Fig4Phases))
		for _, st := range tr.Aggregate() {
			for _, name := range Fig4Phases {
				if st.Name == name {
					row.PhaseImb[name] = st.Imbalance
					row.PhaseWait[name] = st.WaitShare
				}
			}
		}
	}
	return row
}

// Fig5Row is one core-count row of the Figure 5 dynamic-AMR advection
// weak-scaling experiment.
type Fig5Row struct {
	Ranks       int
	Elements    int64
	Unknowns    int64
	AMRSec      float64
	IntegSec    float64
	AMRPercent  float64
	SecPerStep  float64
	NormPerStep float64 // seconds per step per element (aggregate)
	ShippedPct  float64 // elements shipped during repartitioning

	// LivePerElem and PeakRSSPerElem are read at the end of the run, per
	// element of the final mesh: the live heap after a forced collection
	// and the process's peak resident set so far, earlier rows' runs
	// included (VmHWM; 0 where the kernel does not report it), in bytes.
	LivePerElem, PeakRSSPerElem float64
}

// RunFig5 runs the dG advection benchmark: nsteps steps with adaptation
// and repartitioning every adaptEvery steps (the paper uses 32). A tracer
// in obs records the per-timestep solve/adapt split and the AMR sub-phases.
func RunFig5(ranks int, opts advect.Options, nsteps, adaptEvery int, obs Obs) Fig5Row {
	var row Fig5Row
	mpi.RunOpt(ranks, obs.runOptions(), func(c *mpi.Comm) {
		s := advect.NewShell(c, opts)
		s.Met.Reset()
		obs.rank("advect", c.Rank(), s.Met)
		dt := s.DT()
		var amr, integ float64
		for step := 1; step <= nsteps; step++ {
			integ += timedPhase(c, func() { s.Step(dt) })
			if adaptEvery > 0 && step%adaptEvery == 0 {
				amr += timedPhase(c, func() {
					if s.Adapt() {
						dt = s.DT()
					}
				})
			}
		}
		shipped := mpi.AllreduceSum(c, s.Met.Count("elements_shipped"))
		if c.Rank() == 0 {
			row = Fig5Row{
				Ranks:    ranks,
				Elements: s.F.NumGlobal(),
				Unknowns: s.F.NumGlobal() * int64(s.Mesh.Np),
				AMRSec:   amr, IntegSec: integ,
				AMRPercent: 100 * amr / (amr + integ),
				SecPerStep: (amr + integ) / float64(nsteps),
			}
			row.NormPerStep = row.SecPerStep / float64(row.Elements)
			if row.Elements > 0 {
				row.ShippedPct = 100 * float64(shipped) / float64(row.Elements)
				row.LivePerElem = float64(liveHeap()) / float64(row.Elements)
				row.PeakRSSPerElem = float64(peakRSS()) / float64(row.Elements)
			}
		}
		c.Barrier() // every rank's solver stays live until rank 0 has read the heap
		runtime.KeepAlive(s)
	})
	return row
}

// Fig7Row is one core-count row of the Figure 7 mantle-convection runtime
// breakdown.
type Fig7Row struct {
	Ranks  int
	Report rhea.Report
}

// RunFig7 executes a mantle-convection nonlinear solve and returns the
// solve / V-cycle / AMR runtime split.
func RunFig7(ranks int, opts rhea.Options) Fig7Row {
	return RunFig7Obs(ranks, opts, Obs{})
}

// RunFig7Obs is RunFig7 with observability hooks: the mantle solver's
// registry is handed to OnRank and the nonlinear solve runs under a
// "mantle" span (not "minres", which the Report reads).
func RunFig7Obs(ranks int, opts rhea.Options, obs Obs) Fig7Row {
	var row Fig7Row
	mpi.RunOpt(ranks, obs.runOptions(), func(c *mpi.Comm) {
		m := rhea.New(c, opts)
		obs.rank("mantle", c.Rank(), m.Met)
		var rep rhea.Report
		c.Tracer().Span("mantle", func() { rep = m.Run() })
		if c.Rank() == 0 {
			row = Fig7Row{Ranks: ranks, Report: rep}
		}
	})
	return row
}

// Fig9Row is one core-count row of the Figure 9 strong-scaling table for
// global seismic wave propagation.
type Fig9Row struct {
	Ranks       int
	Elements    int64
	Unknowns    int64
	MeshingSec  float64
	WavePerStep float64
	ParEff      float64 // filled by the caller relative to the base row
	GFlops      float64
}

// RunFig9 builds the wavelength-adapted earth mesh and times both the
// parallel mesh generation and the wave-propagation time step. Meshing and
// wave propagation run under spans, and each rank's solver registry is
// handed to obs.OnRank.
func RunFig9(ranks int, opts seismic.Options, steps int, obs Obs) Fig9Row {
	var row Fig9Row
	mpi.RunOpt(ranks, obs.runOptions(), func(c *mpi.Comm) {
		s, meshing := meshEarth(c, opts, obs)

		// Earthquake-like source + initial quiet state.
		s.Source = seismic.EarthSource(opts)
		dt := s.DT()
		c.Barrier()
		t1 := time.Now()
		c.Tracer().Span("waveprop", func() {
			for i := 0; i < steps; i++ {
				s.Step(dt)
			}
		})
		waveSec := mpi.AllreduceMax(c, time.Since(t1).Seconds()) / float64(steps)
		flops := s.FlopsPerStep()
		if c.Rank() == 0 {
			row = Fig9Row{
				Ranks:       ranks,
				Elements:    s.F.NumGlobal(),
				Unknowns:    s.F.NumGlobal() * int64(s.Mesh.Np) * seismic.NC,
				MeshingSec:  meshing,
				WavePerStep: waveSec,
				GFlops:      flops / waveSec / 1e9,
			}
		}
	})
	return row
}

// meshEarth builds the earth solver under a "meshing" span and returns it
// with the slowest rank's meshing time.
func meshEarth(c *mpi.Comm, opts seismic.Options, obs Obs) (s *seismic.Solver, meshingSec float64) {
	c.Barrier()
	t0 := time.Now()
	c.Tracer().Span("meshing", func() { s = seismic.NewEarthSolver(c, opts) })
	obs.rank("seismic", c.Rank(), s.Met)
	return s, mpi.AllreduceMax(c, time.Since(t0).Seconds())
}

// Fig10Row is one device-count row of the Figure 10 weak-scaling table for
// the single-precision device backend.
type Fig10Row struct {
	Devices      int
	Elements     int64
	MeshSec      float64
	TransferSec  float64
	WaveUsPerElt float64 // microseconds per step per element (aggregate)
	ParEff       float64 // filled by caller relative to base row
	GFlops       float64
}

// RunFig10 runs the device backend: host meshing, timed host-to-device
// transfer, and single-precision wave propagation, reporting the paper's
// normalized microseconds per time step per average elements per device.
// Spans cover meshing, the host-to-device transfer, and the device wave
// propagation.
func RunFig10(ranks int, opts seismic.Options, steps int, obs Obs) Fig10Row {
	var row Fig10Row
	mpi.RunOpt(ranks, obs.runOptions(), func(c *mpi.Comm) {
		s, meshing := meshEarth(c, opts, obs)

		var dev *seismic.Device
		c.Tracer().Span("transfer", func() { dev = seismic.NewDevice(s) })
		transfer := mpi.AllreduceMax(c, dev.TransferSec)

		dt := s.DT()
		c.Barrier()
		t1 := time.Now()
		c.Tracer().Span("waveprop", func() {
			for i := 0; i < steps; i++ {
				dev.Step(dt)
			}
		})
		waveSec := mpi.AllreduceMax(c, time.Since(t1).Seconds()) / float64(steps)
		flops := s.FlopsPerStep()
		if c.Rank() == 0 {
			elems := s.F.NumGlobal()
			row = Fig10Row{
				Devices:      ranks,
				Elements:     elems,
				MeshSec:      meshing,
				TransferSec:  transfer,
				WaveUsPerElt: waveSec * 1e6 / float64(elems),
				GFlops:       flops / waveSec / 1e9,
			}
		}
	})
	return row
}
