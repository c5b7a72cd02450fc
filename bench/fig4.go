package main

import (
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/rhea"
)

// fig4-fractal: static AMR from scratch (the paper's Figure 4). One
// operation is one repetition New -> Refine -> Partition -> Balance ->
// Ghost -> Nodes on two ranks; one unit of work is one octant, so
// us_per_unit is the paper's seconds per million octants.

type fig4Size struct {
	level, plus int8 // base level and depth of the fractal
	setupPlus   int8 // depth of the small pipeline that set-up runs
	lnodesLevel int8 // uniform level of the conforming forest LNodes is probed on
	rhea        rhea.Options
	warmups     int // untimed full-size repetitions
	setups      int
}

func fig4Sizes(toy bool) fig4Size {
	r := rhea.DefaultOptions()
	if toy {
		r.MaxLevel, r.DataAdapt, r.Picard, r.MinresIter = 1, 1, 1, 10
		return fig4Size{level: 0, plus: 2, setupPlus: 1, lnodesLevel: 1, rhea: r, warmups: 1, setups: 2}
	}
	// Level 3 is a 12 s solve; level 2 keeps the informational mantle
	// probe to about a second.
	r.MaxLevel = 2
	// The paper-sized level 2+4 mesh (235,584 octants, 4.7 s a repetition)
	// costs the same 19 to 20 µs per octant but needs three untimed
	// repetitions before the heap settles, which a 20 s run cannot afford.
	return fig4Size{level: 2, plus: 3, setupPlus: 2, lnodesLevel: 4, rhea: r, warmups: 3, setups: 9}
}

const fig4Ranks = 2

// paperChildren is the paper's fractal rule: subdivide children 0, 3, 5
// and 6. Its mirror image {1,2,4,7} has the same octant count and the
// same cost per octant, which the other 4-of-8 subsets do not (17.5 to
// 20.6 s/Moct measured), so the seed picks, per tree, between these two.
var paperChildren = [8]bool{0: true, 3: true, 5: true, 6: true}

// fig4Refiner builds the seeded refinement rule. Bit t of mask mirrors
// the rule in tree t; seed 1 gives mask 0, the paper's mesh.
func fig4Refiner(seed int64, maxLevel int8) func(octant.Octant) bool {
	mask := (mix64(uint64(seed)) ^ mix64(1)) & 63
	return func(o octant.Octant) bool {
		if o.Level >= maxLevel {
			return false
		}
		return paperChildren[o.ChildID()] != (mask>>uint(o.Tree)&1 == 1)
	}
}

var fig4Phases = [6]string{"core.new", "core.refine", "core.partition", "core.balance", "core.ghost", "core.nodes"}

// fig4Pipeline runs the six phases between barriers and returns the
// forest, its ghost layer, the phase walls and the wall of the whole
// repetition.
func fig4Pipeline(c *mpi.Comm, conn *connectivity.Conn, level, plus int8, seed int64, ln *lane) (*core.Forest, *core.GhostLayer, [6]float64, float64) {
	var f *core.Forest
	var g *core.GhostLayer
	refine := fig4Refiner(seed, level+plus)
	calls := [6]func(){
		func() { f = core.New(c, conn, level) },
		func() { f.Refine(true, level+plus, refine) },
		func() { f.Partition() },
		func() { f.Balance(core.BalanceFull) },
		func() { g = f.Ghost() },
		func() { f.Nodes(g) },
	}
	var ph [6]float64
	t0 := time.Now()
	ln.begin(opRoot)
	for i, call := range calls {
		c.Barrier()
		ln.begin(fig4Phases[i])
		p0 := time.Now()
		call()
		c.Barrier()
		ph[i] = time.Since(p0).Seconds()
		ln.end()
	}
	ln.end()
	return f, g, ph, time.Since(t0).Seconds()
}

func runFig4(cfg config) (*outcome, error) {
	sz := fig4Sizes(cfg.toy)
	out := &outcome{layer: map[string]float64{}}

	// Set-up: world start, connectivity, and a small pipeline that pages
	// in every phase's code and tables.
	for i := 1; i < sz.setups; i++ {
		t0 := time.Now()
		mpi.Run(fig4Ranks, func(c *mpi.Comm) {
			fig4Pipeline(c, connectivity.SixRotCubes(), sz.level, sz.setupPlus, cfg.seed, nil)
		})
		out.setups = append(out.setups, time.Since(t0).Seconds())
		settle()
	}

	rec := newRecorder(cfg, fig4Ranks)
	// The reference answer: the same mesh built on one rank. The forest
	// must not depend on how it is partitioned.
	var wantOctants int64
	var wantSum uint64
	mpi.Run(1, func(c *mpi.Comm) {
		f, _, _, _ := fig4Pipeline(c, connectivity.SixRotCubes(), sz.level, sz.plus, cfg.seed, nil)
		wantOctants, wantSum = f.NumGlobal(), f.Checksum()
	})
	if cfg.corrupt {
		wantSum++
	}
	settle()
	t0 := time.Now()
	mpi.Run(fig4Ranks, func(c *mpi.Comm) {
		root := c.Rank() == 0
		ln := rec.lane(c.Rank())
		conn := connectivity.SixRotCubes()
		fig4Pipeline(c, conn, sz.level, sz.setupPlus, cfg.seed, nil)
		if root {
			out.setups = append(out.setups, time.Since(t0).Seconds())
			out.transport, out.workers = c.Transport(), c.Workers()
		}
		// Untimed full-size repetitions: the first ones in a process grow
		// the heap and measured up to 50 % slow in Nodes.
		var f *core.Forest
		for i := 0; i < sz.warmups; i++ {
			f, _, _, _ = fig4Pipeline(c, conn, sz.level, sz.plus, cfg.seed, nil)
		}

		var phases [6][]float64 // s/Moct, one per repetition
		var phaseWall float64
		var recvWait time.Duration
		start := time.Now()
		for ops := 0; more(c, start, cfg.seconds, ops); ops++ {
			ln.startOp(ops, ops%2 == 0)
			c.ResetStats()
			var ph [6]float64
			var wall float64
			f, _, ph, wall = fig4Pipeline(c, conn, sz.level, sz.plus, cfg.seed, ln)
			st := c.Stats()
			n := f.NumGlobal()
			err, checksum := f.Validate(), f.Checksum()
			if cfg.trace && ops == 0 {
				// Exact counts of one repetition; every repetition of a
				// seed sends the same messages.
				fig4Counts(c, f, out)
			}
			wait := mpi.AllreduceSum(c, int64(st.RecvWait))
			if !root {
				continue
			}
			chk := out.op()
			chk.require(err == nil, "rep %d: Validate: %v", ops, err)
			chk.require(n == wantOctants, "rep %d: %d octants, want %d", ops, n, wantOctants)
			chk.require(checksum == wantSum, "rep %d: checksum %#x, want %#x", ops, checksum, wantSum)
			us := sum(ph[:]) * 1e6 / float64(n)
			out.sample(ln, us)
			out.units += float64(n)
			out.wall += wall
			for i := range ph {
				phases[i] = append(phases[i], ph[i]*1e6/float64(n))
			}
			phaseWall += sum(ph[:])
			recvWait += time.Duration(wait)
		}
		if root {
			out.note("octants %d, checksum %#x, balance rounds %d", f.NumGlobal(), wantSum, f.BalanceRounds)
		}
		if !cfg.trace {
			return
		}
		ln.startOp(0, false)
		if root {
			// The same statistic as us_per_unit, phase by phase. A sum of
			// low deciles is at most the low decile of the sums, so the
			// six fall a few per cent short of the end-to-end figure.
			for i, name := range fig4Phases {
				out.layer[name+"_s_per_moct"] = lowDecile(phases[i])
			}
			out.layer["core.recv_wait_share"] = recvWait.Seconds() / (fig4Ranks * phaseWall)
		}
		fig4Probes(c, conn, f, sz, cfg.seed, out)
	})
	if cfg.trace {
		out.spans = rec.merge()
		row := experiments.RunFig7(fig4Ranks, sz.rhea)
		out.layer["rhea.solve_s"] = row.Report.SolveSec
		out.layer["rhea.minres_iters"] = float64(row.Report.MinresIters)
		out.layer["rhea.amr_share"] = row.Report.AMRPct / 100
	}
	return out, nil
}

// fig4Counts records the exact message counts of the repetition that
// just ran. Collective.
func fig4Counts(c *mpi.Comm, f *core.Forest, out *outcome) {
	bm, bb := commTotals(c, core.TagBalance)
	gm, gb := commTotals(c, core.TagGhost)
	_, pb := commTotals(c, core.TagPartition)
	if c.Rank() != 0 {
		return
	}
	out.layer["core.balance_rounds"] = float64(f.BalanceRounds)
	out.layer["core.balance_msgs"] = float64(bm)
	out.layer["core.balance_bytes"] = float64(bb)
	out.layer["core.ghost_msgs"] = float64(gm)
	out.layer["core.ghost_bytes"] = float64(gb)
	out.layer["core.partition_bytes"] = float64(pb)
	out.layer["core.meta_bytes"] = float64(f.MetaBytes())
}

// fig4Probes times the core calls the six phases do not reach, on the
// forest the workload just built. Collective.
func fig4Probes(c *mpi.Comm, conn *connectivity.Conn, f *core.Forest, sz fig4Size, seed int64, out *outcome) {
	root := c.Rank() == 0

	// LNodes needs a conforming mesh, which the fractal is not: probe it
	// on a uniform forest of the same connectivity.
	u := core.New(c, conn, sz.lnodesLevel)
	ug := u.Ghost()
	t := walled(c, func() { u.LNodes(ug, 2) })
	if root {
		out.layer["core.lnodes_s_per_moct"] = t / (float64(u.NumGlobal()) / 1e6)
	}

	// The incremental use: coarsen and refine a seeded ~5 % of the leaves
	// of an already balanced forest, then re-balance.
	pick := func(o octant.Octant) uint64 {
		h := mix64(uint64(seed) ^ uint64(o.Tree)<<8 ^ uint64(o.Level))
		return mix64(h^uint64(o.X)<<40^uint64(o.Y)<<20^uint64(o.Z)) % 20
	}
	n := f.NumGlobal()
	t = walled(c, func() {
		f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool { return pick(parent) == 0 })
		f.Refine(false, sz.level+sz.plus, func(o octant.Octant) bool { return pick(o) == 1 })
		f.Balance(core.BalanceFull)
	})
	if root {
		out.layer["core.rebalance_s_per_moct"] = t / (float64(n) / 1e6)
	}

	// PartitionWithData: skew the partition by weight first so that the
	// equal-count partition has leaves to ship.
	w := make([]float64, f.NumLocal())
	for i := range w {
		w[i] = 1 + 2*float64(c.Rank())
	}
	f.PartitionWeighted(w)
	const perLeaf = 64
	data := make([]float64, perLeaf*f.NumLocal())
	var sent int64
	t = walled(c, func() { _, sent = f.PartitionWithData(perLeaf, data) })
	sent = mpi.AllreduceSum(c, sent)
	if root {
		out.layer["core.partition_data_mb_per_s"] = float64(sent) * perLeaf * 8 / 1e6 / t
		out.note("probes: lnodes on %d octants, rebalance on %d, partition shipped %d leaves", u.NumGlobal(), n, sent)
	}
}
