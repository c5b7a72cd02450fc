package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/advect"
	"repro/internal/connectivity"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// fig5-advect: the paper's dynamic-AMR loop (Figure 5). One operation is
// one block of steps followed by Adapt on two ranks; one unit of work is
// one element advanced one step.

type fig5Size struct {
	degree          int
	level, maxLevel int8
	blockSteps      int // Steps between two Adapts
	serialSteps     int // steps of the P=1 and telemetry baselines
	probeReps       int
	setups          int
	// Correctness bounds, fixed from seeds 1 to 12 with a factor of ten
	// or more to spare (see the notes a run prints).
	maxError, maxMassDrift float64
}

func fig5Sizes(toy bool) fig5Size {
	if toy {
		return fig5Size{degree: 1, level: 1, maxLevel: 2, blockSteps: 2, serialSteps: 1, probeReps: 2, setups: 1,
			maxError: 0.5, maxMassDrift: 0.1}
	}
	return fig5Size{degree: 3, level: 2, maxLevel: 4, blockSteps: 8, serialSteps: 4, probeReps: 20, setups: 5,
		maxError: 1e-3, maxMassDrift: 1e-6}
}

const fig5Ranks = 2

// fig5Fronts is the seeded initial condition: the paper's four Gaussian
// fronts at mid-shell radius, a quarter turn apart, with a seeded common
// azimuth and a seeded latitude each. The latitudes stay within 0.05 rad
// of the equator: a band of 0.25 rad moved the cost per element step by
// 15 % between seeds, more than any change the gate is meant to catch.
func fig5Fronts(seed int64) func(x, y, z float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	const r0, sigma = 0.775, 0.12
	phi0 := rng.Float64() * 2 * math.Pi
	var ctr [4][3]float64
	for k := range ctr {
		phi := phi0 + float64(k)*math.Pi/2
		theta := math.Pi/2 + (rng.Float64()-0.5)*0.1
		ctr[k] = [3]float64{r0 * math.Sin(theta) * math.Cos(phi), r0 * math.Sin(theta) * math.Sin(phi), r0 * math.Cos(theta)}
	}
	return func(x, y, z float64) float64 {
		var c float64
		for _, p := range ctr {
			dx, dy, dz := x-p[0], y-p[1], z-p[2]
			c += math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * sigma * sigma))
		}
		return c
	}
}

func (sz fig5Size) options() advect.Options {
	o := advect.DefaultOptions()
	o.Degree, o.Level, o.MaxLevel = sz.degree, sz.level, sz.maxLevel
	return o
}

func (sz fig5Size) solver(c *mpi.Comm, seed int64) *advect.Solver {
	return advect.NewCustom(c, connectivity.Shell(0.55, 1.0), sz.options(), nil, fig5Fronts(seed))
}

// fig5Steps advances n steps and returns their wall and the element
// steps they covered.
func fig5Steps(c *mpi.Comm, s *advect.Solver, n int, ln *lane) (wall, elemSteps float64) {
	dt := s.DT()
	wall = walled(c, func() {
		for i := 0; i < n; i++ {
			elemSteps += float64(s.F.NumGlobal())
			ln.do("advect.step", func() { s.Step(dt) })
		}
	})
	return wall, elemSteps
}

func runFig5(cfg config) (*outcome, error) {
	sz := fig5Sizes(cfg.toy)
	out := &outcome{layer: map[string]float64{}}

	for i := 1; i < sz.setups; i++ {
		t0 := time.Now()
		mpi.Run(fig5Ranks, func(c *mpi.Comm) { sz.solver(c, cfg.seed) })
		out.setups = append(out.setups, time.Since(t0).Seconds())
		settle()
	}

	rec := newRecorder(cfg, fig5Ranks)
	maxError := sz.maxError
	if cfg.corrupt {
		maxError = 0
	}
	ckpt := filepath.Join(cfg.tmp, "fig5")
	var stepUS float64 // steps only, µs per element step, from the timed blocks
	var err error
	t0 := time.Now()
	mpi.Run(fig5Ranks, func(c *mpi.Comm) {
		root := c.Rank() == 0
		ln := rec.lane(c.Rank())
		s := sz.solver(c, cfg.seed)
		c.Barrier()
		if root {
			out.setups = append(out.setups, time.Since(t0).Seconds())
			out.transport, out.workers = c.Transport(), c.Workers()
			out.note("elements %d at start", s.F.NumGlobal())
		}
		block := func() (wall, stepWall, elemSteps float64) {
			ln.begin(opRoot)
			p0 := time.Now()
			stepWall, elemSteps = fig5Steps(c, s, sz.blockSteps, ln)
			ln.do("advect.adapt", func() { s.Adapt() })
			c.Barrier()
			wall = time.Since(p0).Seconds()
			ln.end()
			return wall, stepWall, elemSteps
		}
		block() // untimed: heap growth and page-in
		mass0 := s.Mass()
		shipped0 := s.Met.Count("elements_shipped")

		var stepWalls, adaptWall, elemStepsAll, worstDrift float64
		start := time.Now()
		for ops := 0; more(c, start, cfg.seconds, ops); ops++ {
			ln.startOp(ops, ops%2 == 0)
			if cfg.trace && ops == 0 {
				c.ResetStats()
			}
			wall, stepWall, elemSteps := block()
			if cfg.trace && ops == 0 {
				// Exact counts of the first timed block (steps and its
				// Adapt): later blocks depend on how many fit the run.
				st := c.Stats()
				msgs := mpi.AllreduceSum(c, st.MsgsSent)
				bytes := mpi.AllreduceSum(c, st.BytesSent)
				if root {
					out.layer["mpi.msgs_per_step"] = float64(msgs) / float64(sz.blockSteps)
					out.layer["mpi.bytes_per_step"] = float64(bytes) / float64(sz.blockSteps)
				}
			}
			mass, e := s.Mass(), s.ErrorVsExact()
			if !root {
				continue
			}
			chk := out.op()
			drift := math.Abs(mass-mass0) / math.Abs(mass0)
			chk.require(drift <= sz.maxMassDrift, "block %d: mass drift %.3g > %.3g", ops, drift, sz.maxMassDrift)
			worstDrift = max(worstDrift, drift)
			chk.require(e <= maxError, "block %d: error vs exact %.4g > %.4g", ops, e, maxError)
			us := wall * 1e6 / elemSteps
			out.sample(ln, us)
			out.units += elemSteps
			out.wall += wall
			stepWalls += stepWall
			adaptWall += wall - stepWall
			elemStepsAll += elemSteps
		}
		hash, e := s.FieldHash(), s.ErrorVsExact()
		if root {
			stepUS = stepWalls * 1e6 / elemStepsAll
			out.note("elements %d at end, error vs exact %.4g, worst mass drift %.3g, final field hash %#016x", s.F.NumGlobal(), e, worstDrift, hash)
		}
		if !cfg.trace {
			return
		}
		ln.startOp(0, false)
		st := c.Stats()
		wait := mpi.AllreduceSum(c, int64(st.RecvWait))
		shipped := mpi.AllreduceSum(c, s.Met.Count("elements_shipped")-shipped0)
		if root {
			dofs := elemStepsAll * float64(s.Mesh.Np)
			out.layer["advect.step_ns_per_dof"] = stepWalls * 1e9 / dofs
			out.layer["advect.adapt_ms_per_kelem"] = adaptWall * 1e3 / (elemStepsAll / float64(sz.blockSteps) / 1e3)
			out.layer["advect.amr_share"] = adaptWall / out.wall
			out.layer["mpi.recv_wait_share"] = time.Duration(wait).Seconds() / (fig5Ranks * out.wall)
			out.layer["advect.shipped_pct"] = 100 * float64(shipped) / (elemStepsAll / float64(sz.blockSteps))
		}
		fig5Probes(c, s, sz, out)
		mpiProbes(c, 50*sz.probeReps, out)
		mangllProbes(c, s.Mesh, sz.probeReps, out)

		var serr error // the same on every rank
		t := walled(c, func() { serr = s.SaveCheckpoint(ckpt, 1) })
		if root {
			var bytes int64
			if bytes, err = fileSizes(serr, ckpt+".forest", ckpt+".fields"); err == nil {
				out.layer["advect.ckpt_save_mb_per_s"] = float64(bytes) / 1e6 / t
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("fig5 checkpoint probe: %w", err)
	}
	if !cfg.trace {
		return out, nil
	}
	out.spans = rec.merge()
	out.layer["mpi.world_start_us"] = worldStartUS(2 * sz.probeReps)

	// Resume the checkpoint in a fresh world.
	t0 = time.Now()
	err = mpi.RunErr(fig5Ranks, func(c *mpi.Comm) error {
		_, _, rerr := advect.ResumeCustom(c, connectivity.Shell(0.55, 1.0), sz.options(), nil, fig5Fronts(cfg.seed), ckpt)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("fig5 resume probe: %w", err)
	}
	out.layer["advect.resume_s"] = time.Since(t0).Seconds()

	// The same problem on one rank, and on two ranks with the telemetry
	// stack attached: both from the seed's initial mesh, steps only.
	baseline := func(ranks int, opts mpi.RunOptions) float64 {
		var us float64
		mpi.RunOpt(ranks, opts, func(c *mpi.Comm) {
			s := sz.solver(c, cfg.seed)
			fig5Steps(c, s, 1, nil)
			wall, elemSteps := fig5Steps(c, s, sz.serialSteps, nil)
			if c.Rank() == 0 {
				us = wall * 1e6 / elemSteps
			}
		})
		return us
	}
	serial := baseline(1, mpi.RunOptions{})
	out.layer["advect.serial_us_per_elem_step"] = serial
	out.layer["advect.par_eff_p2"] = serial / (fig5Ranks * stepUS)
	plain := baseline(fig5Ranks, mpi.RunOptions{})
	observed := baseline(fig5Ranks, mpi.RunOptions{Tracer: trace.New(fig5Ranks), Metrics: metrics.NewSharded(fig5Ranks)})
	out.layer["telemetry.step_overhead_pct"] = 100 * (observed/plain - 1)
	return out, nil
}

// fileSizes adds up the sizes of the files, unless err is already set.
func fileSizes(err error, paths ...string) (int64, error) {
	var total int64
	for _, p := range paths {
		if err != nil {
			break
		}
		var fi os.FileInfo
		if fi, err = os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total, err
}

// fig5Probes times the solver calls the blocks do not separate.
func fig5Probes(c *mpi.Comm, s *advect.Solver, sz fig5Size, out *outcome) {
	root := c.Rank() == 0
	dofs := float64(s.F.NumGlobal()) * float64(s.Mesh.Np)
	dc := make([]float64, len(s.C))
	t := walled(c, func() {
		for i := 0; i < 5; i++ {
			s.RHS(s.C, dc)
		}
	}) / 5
	dt := walled(c, func() {
		for i := 0; i < sz.probeReps; i++ {
			s.DT()
		}
	}) / float64(sz.probeReps)
	c.Barrier()
	m0 := mallocs()
	fig5Steps(c, s, sz.serialSteps, nil)
	m1 := mallocs()
	if root {
		out.layer["advect.rhs_ns_per_dof"] = t * 1e9 / dofs
		out.layer["advect.dt_us"] = dt * 1e6
		out.layer["advect.allocs_per_step"] = float64(m1-m0) / float64(sz.serialSteps)
	}
}
