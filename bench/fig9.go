package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/mpi"
	"repro/internal/seismic"
)

// fig9-seismic: wave propagation on a fixed PREM-adapted mesh (the
// paper's Figure 9). One operation is one Step on one rank with two pool
// workers; one unit of work is one element advanced one step.

type fig9Size struct {
	opts        seismic.Options
	warmSteps   int // untimed steps; their hash is checked against one worker
	deviceSteps int
	probeReps   int
	setups      int
}

func fig9Sizes(toy bool) fig9Size {
	o := seismic.DefaultOptions()
	if toy {
		o.Degree, o.MaxLevel, o.FreqHz = 2, 1, 0.001
		return fig9Size{opts: o, warmSteps: 1, deviceSteps: 1, probeReps: 2, setups: 1}
	}
	o.Degree, o.MaxLevel, o.FreqHz = 3, 4, 0.003
	return fig9Size{opts: o, warmSteps: 3, deviceSteps: 5, probeReps: 20, setups: 9}
}

const (
	fig9Workers = 2
	// The Ricker source peaks at t = 0.8 and a run reaches t = 0.01: the
	// energy of seeds 1 to 12 stayed below 1e-17 over the first 40 steps.
	fig9MaxEnergy = 1e-9
)

func premMaterial(p [3]float64) seismic.Material {
	r := math.Sqrt(p[0]*p[0]+p[1]*p[1]+p[2]*p[2]) * seismic.EarthRadiusKm
	return seismic.PREMMaterial(r)
}

// fig9Source is the seeded input: a radially pointing Ricker source at
// depth 0.1 under a seeded point of the surface.
func fig9Source(seed int64, freqHz float64) func(t float64, p [3]float64) [3]float64 {
	rng := rand.New(rand.NewSource(seed))
	z := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	r := math.Sqrt(1 - z*z)
	dir := [3]float64{r * math.Cos(phi), r * math.Sin(phi), z}
	src := [3]float64{0.9 * dir[0], 0.9 * dir[1], 0.9 * dir[2]}
	return seismic.RickerSource(src, dir, freqHz*500, 1, 0.05)
}

// fig9Build is seismic.NewEarthSolver taken apart so that meshing and
// solver construction can be timed separately.
func fig9Build(c *mpi.Comm, sz fig9Size, seed int64) (s *seismic.Solver, meshing, newSolver float64) {
	t0 := time.Now()
	f := seismic.BuildEarthForest(c, sz.opts)
	t1 := time.Now()
	s = seismic.NewSolver(c, f, sz.opts, premMaterial)
	s.Source = fig9Source(seed, sz.opts.FreqHz)
	return s, t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
}

func runFig9(cfg config) (*outcome, error) {
	sz := fig9Sizes(cfg.toy)
	out := &outcome{layer: map[string]float64{}}
	pooled := mpi.RunOptions{Workers: fig9Workers}

	for i := 1; i < sz.setups; i++ {
		t0 := time.Now()
		mpi.RunOpt(1, pooled, func(c *mpi.Comm) { fig9Build(c, sz, cfg.seed) })
		out.setups = append(out.setups, time.Since(t0).Seconds())
		settle()
	}

	// The same first steps on one worker: the repo's contract is that
	// they hash bitwise equal to the pooled run.
	var wantHash uint64
	var serialUS float64
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s, _, _ := fig9Build(c, sz, cfg.seed)
		dt := s.DT()
		t0 := time.Now()
		for i := 0; i < sz.warmSteps; i++ {
			s.Step(dt)
		}
		serialUS = time.Since(t0).Seconds() * 1e6 / float64(sz.warmSteps) / float64(s.F.NumGlobal())
		wantHash = s.FieldHash()
	})
	if cfg.corrupt {
		wantHash++
	}
	settle()

	rec := newRecorder(cfg, 1)
	t0 := time.Now()
	mpi.RunOpt(1, pooled, func(c *mpi.Comm) {
		ln := rec.lane(0)
		s, meshing, newSolver := fig9Build(c, sz, cfg.seed)
		out.setups = append(out.setups, time.Since(t0).Seconds())
		out.transport, out.workers = c.Transport(), c.Workers()
		elems := float64(s.F.NumGlobal())
		dt := s.DT()
		for i := 0; i < sz.warmSteps; i++ {
			s.Step(dt)
		}
		hash := s.FieldHash()
		out.op().require(hash == wantHash, "hash after %d steps %#016x with %d workers, %#016x with 1", sz.warmSteps, hash, fig9Workers, wantHash)
		out.note("elements %d, dt %.4g, hash after %d steps %#016x", s.F.NumGlobal(), dt, sz.warmSteps, hash)

		var busy, span, maxOverMean, steals float64
		start := time.Now()
		for ops := 0; more(c, start, cfg.seconds, ops); ops++ {
			ln.startOp(ops, ops%2 == 0)
			ln.begin(opRoot)
			p0 := time.Now()
			ln.do("seismic.step", func() { s.Step(dt) })
			wall := time.Since(p0).Seconds()
			ln.end()
			if cfg.trace {
				b, sp, im, st := poolJobStats(c)
				busy, span, maxOverMean, steals = busy+b, span+sp, maxOverMean+im, steals+st
			}
			e := s.Energy()
			out.op().require(e >= 0 && e < fig9MaxEnergy, "step %d: energy %g", ops, e)
			us := wall * 1e6 / elems
			out.sample(ln, us)
			out.units += elems
			out.wall += wall
		}
		out.note("energy %.4g at t=%.4g", s.Energy(), s.Time)
		if !cfg.trace {
			return
		}
		ln.startOp(0, false)
		steps := float64(len(out.samples) + len(out.traced))
		dofs := elems * float64(s.Mesh.Np) * seismic.NC
		stepS := out.wall / steps
		out.layer["seismic.meshing_s"] = meshing
		out.layer["seismic.newsolver_s"] = newSolver
		out.layer["seismic.step_ns_per_dof"] = stepS * 1e9 / dofs
		out.layer["seismic.gflops_computed"] = s.FlopsPerStep() / stepS / 1e9
		out.layer["seismic.serial_us_per_elem_step"] = serialUS
		out.layer["seismic.pool_speedup_w2"] = serialUS / (stepS * 1e6 / elems)
		// Pool.Stats keeps the most recent job only: these are over the
		// last pool job of every step, the closing Lift sweep.
		out.layer["pool.busy_share"] = busy / (fig9Workers * span)
		out.layer["pool.imbalance"] = maxOverMean / steps
		out.layer["pool.steals_per_apply"] = steals / steps

		dq := make([]float64, len(s.Q))
		out.layer["seismic.rhs_ns_per_dof"] = medianOf(3, func() { s.RHS(s.Time, s.Q, dq) }) * 1e9 / dofs
		out.layer["pool.dispatch_us"] = medianOf(50*sz.probeReps, func() { c.Pool().Run(8, func(int, int) {}) }) * 1e6
		m0 := mallocs()
		s.Step(dt)
		out.layer["seismic.allocs_per_step"] = float64(mallocs() - m0)
		mangllProbes(c, s.Mesh, sz.probeReps, out)

		// The float32 twin of the same kernels.
		d := seismic.NewDevice(s)
		out.layer["seismic.device_transfer_s"] = d.TransferSec
		d.Step(dt)
		out.layer["seismic.device_us_per_elem_step"] = medianOf(sz.deviceSteps, func() { d.Step(dt) }) * 1e6 / elems
	})
	if cfg.trace {
		out.spans = rec.merge()
	}
	return out, nil
}

// poolJobStats reads the rank's pool accounting of its most recent job:
// summed busy time, the job's span from first claim to last batch end,
// the busiest worker over the mean, and stolen batches.
func poolJobStats(c *mpi.Comm) (busy, span, maxOverMean, steals float64) {
	var first, last time.Time
	var maxBusy time.Duration
	stats := c.Pool().Stats()
	for _, st := range stats {
		if st.Batches == 0 {
			continue
		}
		busy += st.Busy.Seconds()
		steals += float64(st.Steals)
		maxBusy = max(maxBusy, st.Busy)
		if first.IsZero() || st.Start.Before(first) {
			first = st.Start
		}
		if end := st.Start.Add(st.Busy); end.After(last) {
			last = end
		}
	}
	if busy == 0 {
		return 0, 0, 1, steals
	}
	return busy, last.Sub(first).Seconds(), maxBusy.Seconds() * float64(len(stats)) / busy, steals
}
