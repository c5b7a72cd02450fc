// Package advect implements the paper's dynamic-AMR benchmark application
// (§III.B): the time-dependent advection equation dC/dt + u . grad C = 0,
// discretized with an upwind nodal discontinuous Galerkin method on
// tensor-product LGL points and integrated with the five-stage fourth-order
// low-storage Runge-Kutta scheme, on a dynamically refined, coarsened, and
// repartitioned forest-of-octrees mesh of the spherical shell.
package advect

import (
	"math"
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/sim"
)

// Options configure the advection solver.
type Options struct {
	Degree     int     // polynomial degree (paper uses 3, "tricubic")
	Level      int8    // initial uniform refinement level
	MaxLevel   int8    // finest allowed refinement level
	Omega      float64 // solid-body rotation rate about the z axis
	CFL        float64
	RefineTol  float64 // refine elements whose indicator exceeds this
	CoarsenTol float64 // coarsen elements whose indicator falls below this
	// CentralFlux switches the interface flux from upwind (the paper's
	// choice) to the energy-neutral central flux — an ablation that shows
	// why the upwind flux is used: central is non-dissipative but admits
	// spurious oscillations at underresolved fronts.
	CentralFlux bool
	// NoOverlap disables the split-phase ghost exchange: the exchange
	// completes before any kernel runs, as in pre-overlap builds. The
	// kernels execute in the same order either way (volume, faces of
	// interior elements, faces of boundary elements), so both paths
	// produce bitwise-identical results; this is the baseline for the
	// overlap measurements.
	NoOverlap bool
}

// DefaultOptions returns the configuration used by the Figure 5 runs.
func DefaultOptions() Options {
	return Options{
		Degree: 3, Level: 2, MaxLevel: 6,
		Omega: 1, CFL: 0.4, RefineTol: 0.08, CoarsenTol: 0.015,
	}
}

// Solver is a distributed dG advection solver on the spherical shell.
type Solver struct {
	Opts Options
	Comm *mpi.Comm
	Conn *connectivity.Conn
	F    *core.Forest
	Mesh *mangll.Mesh
	LGL  *mangll.LGL
	C    []float64 // solution nodal values, local elements only
	Time float64
	Met  *metrics.Registry

	// Pre-resolved instrument handles so the hot path never touches the
	// registry maps: whole-RHS, exchange-wait, and per-step duration
	// histograms, plus the live progress gauges /healthz reads.
	live                metrics.Progress
	hRHS, hExch, hInteg *metrics.Histogram

	rk  mangll.LSRK45
	cv  [3][]float64 // contravariant velocity J grad(xi_a) . u at local nodes
	buf []float64    // local+ghost work array

	// Per-worker hot-path scratch, allocated once so RHS is
	// allocation-free in steady state. One entry per kernel worker; the
	// serial path uses ws[0].
	ws []advScratch
	// unw holds the precomputed normal velocity u . areaVec at every
	// link's flux points (Nf values per link, element-major like
	// Mesh.Links; zeros for domain-boundary links). The advecting velocity
	// depends only on position, so these are fixed between adaptations —
	// rebuild() recomputes them after every mesh change. Replaces the
	// per-RHS faceNormalVel evaluation, which redid the velocity model and
	// hanging-face interpolation at every stage of every step.
	unw   []float64
	kern  advKernel
	kC    []float64 // RHS input/output of the Apply in progress
	kDC   []float64
	rhsFn func(tt float64, u, du []float64)
	// fillFn copies a range of the RHS input into the exchange buffer.
	fillFn func(w *mangll.Work, lo, hi int)

	velFn func(x, y, z float64) (float64, float64, float64)
	icFn  func(x, y, z float64) float64
}

// advScratch is one worker's element- and face-sized kernel buffers.
type advScratch struct {
	tmp, fa         []float64 // Np
	mine, theirs, g []float64 // Nf
}

// advKernel adapts the solver to the mangll.Kernel interface. It is a
// field of Solver so the interface conversion (&s.kern) never allocates.
type advKernel struct{ s *Solver }

func (k *advKernel) NumComps() int { return 1 }

func (k *advKernel) Volume(w *mangll.Work, elems []int32) {
	k.s.volumeTerm(w, elems, k.s.kC, k.s.kDC)
}

func (k *advKernel) InteriorFace(w *mangll.Work, links []int32) {
	k.s.faceTerm(w, links, k.s.kDC)
}

func (k *advKernel) BoundaryFace(w *mangll.Work, links []int32) {
	k.s.faceTerm(w, links, k.s.kDC)
}

// NewShell creates a solver on the 24-tree spherical shell with four
// advecting spherical fronts as the initial condition, as in §III.B.
func NewShell(comm *mpi.Comm, opts Options) *Solver {
	return NewCustom(comm, connectivity.Shell(0.55, 1.0), opts, nil, nil)
}

// NewCustom creates a solver on an arbitrary connectivity with optional
// caller-provided velocity and initial-condition fields (nil selects the
// §III.B defaults: solid-body rotation and the four spherical fronts).
// The velocity must have zero normal component on any domain boundary.
func NewCustom(comm *mpi.Comm, conn *connectivity.Conn, opts Options,
	vel func(x, y, z float64) (float64, float64, float64),
	ic func(x, y, z float64) float64) *Solver {
	s := newSolver(comm, conn, opts, vel, ic)
	stop := s.Met.Start("amr")
	s.F = core.New(comm, conn, opts.Level)
	s.F.Balance(core.BalanceFull)
	s.F.Partition()
	s.rebuild()
	stop()
	s.C = make([]float64, s.Mesh.NumLocal*s.Mesh.Np)
	s.project(s.InitialCondition)
	// Resolve the initial fronts before starting, re-sampling the initial
	// condition on each refined mesh.
	for i := 0; i < int(opts.MaxLevel-opts.Level); i++ {
		changed := s.Adapt()
		s.C = make([]float64, s.Mesh.NumLocal*s.Mesh.Np)
		s.project(s.InitialCondition)
		if !changed {
			break
		}
	}
	return s
}

// newSolver returns a solver with everything but forest, mesh and
// solution: the part NewCustom and ResumeCustom share.
func newSolver(comm *mpi.Comm, conn *connectivity.Conn, opts Options,
	vel func(x, y, z float64) (float64, float64, float64),
	ic func(x, y, z float64) float64) *Solver {
	s := &Solver{
		Opts: opts, Comm: comm, Conn: conn,
		LGL:   mangll.NewLGL(opts.Degree),
		Met:   metrics.NewRegistry(),
		velFn: vel, icFn: ic,
	}
	s.live = metrics.NewProgress(s.Met)
	s.hRHS = s.Met.Histogram("rhs", metrics.UnitDuration)
	s.hExch = s.Met.Histogram("exchange", metrics.UnitDuration)
	s.hInteg = s.Met.Histogram("integrate", metrics.UnitDuration)
	s.kern = advKernel{s: s}
	// One closure for the integrator and one for RHS's buffer fill, built
	// once so Step allocates nothing.
	s.rhsFn = func(tt float64, u, du []float64) { s.RHS(u, du) }
	s.fillFn = func(_ *mangll.Work, lo, hi int) { copy(s.buf[lo:hi], s.kC[lo:hi]) }
	return s
}

// InitialCondition evaluates the initial concentration field: the custom
// field if one was provided, else four spherical fronts placed mid-shell,
// 90 degrees apart around the rotation axis.
func (s *Solver) InitialCondition(x, y, z float64) float64 {
	if s.icFn != nil {
		return s.icFn(x, y, z)
	}
	const r0 = 0.775 // mid-shell radius
	centers := [4][3]float64{
		{r0, 0, 0}, {0, r0, 0}, {-r0, 0, 0}, {0, -r0, 0},
	}
	var c float64
	const sigma = 0.12
	for _, ctr := range centers {
		dx, dy, dz := x-ctr[0], y-ctr[1], z-ctr[2]
		d2 := dx*dx + dy*dy + dz*dz
		c += math.Exp(-d2 / (2 * sigma * sigma))
	}
	return c
}

// Velocity is the advecting flow: the custom field if one was provided,
// else solid-body rotation about the z axis, which is divergence-free and
// tangential to the shell boundaries.
func (s *Solver) Velocity(x, y, z float64) (ux, uy, uz float64) {
	if s.velFn != nil {
		return s.velFn(x, y, z)
	}
	return -s.Opts.Omega * y, s.Opts.Omega * x, 0
}

// project sets the solution to the nodal interpolant of f.
func (s *Solver) project(f func(x, y, z float64) float64) {
	m := s.Mesh
	for e := 0; e < m.NumLocal; e++ {
		for n := 0; n < m.Np; n++ {
			i := e*m.Np + n
			s.C[i] = f(m.X[0][i], m.X[1][i], m.X[2][i])
		}
	}
}

// rebuild brings ghost layer, mesh and velocity data up to date after the
// forest changed. The mesh is rebuilt in place and says which elements it
// kept (Mesh.Src): their contravariant velocities are carried along, those
// of the other elements computed; the per-link normal velocities are
// computed afresh, links being renumbered by any change.
func (s *Solver) rebuild() {
	g := s.F.Ghost()
	if s.Mesh == nil {
		s.Mesh = mangll.NewMesh(s.F, g, s.LGL)
		s.rk.ForRange = s.Mesh.ForRange
		s.ws = make([]advScratch, s.Comm.Workers())
		for w := range s.ws {
			s.ws[w] = advScratch{
				tmp:    make([]float64, s.Mesh.Np),
				fa:     make([]float64, s.Mesh.Np),
				mine:   make([]float64, s.Mesh.Nf),
				theirs: make([]float64, s.Mesh.Nf),
				g:      make([]float64, s.Mesh.Nf),
			}
		}
	} else {
		s.Mesh.Rebuild(g)
	}
	m := s.Mesh
	for a := 0; a < 3; a++ {
		s.cv[a] = mangll.Carry(s.cv[a], m.Src, m.Np)
	}
	for e, from := range m.Src {
		if from >= 0 {
			continue
		}
		for i := e * m.Np; i < (e+1)*m.Np; i++ {
			ux, uy, uz := s.Velocity(m.X[0][i], m.X[1][i], m.X[2][i])
			for a := 0; a < 3; a++ {
				s.cv[a][i] = m.Gi[a][0][i]*ux + m.Gi[a][1][i]*uy + m.Gi[a][2][i]*uz
			}
		}
	}
	s.buf = mangll.Resize(s.buf, (m.NumLocal+m.NumGhost)*m.Np)
	// Precompute the per-link normal velocities (see the unw field docs):
	// u . areaVec at each link's flux points, interpolated onto the
	// quadrant grid for hanging faces — exactly the values the old
	// faceNormalVel recomputed every RHS call.
	s.unw = mangll.Resize(s.unw, len(m.Links)*m.Nf)
	fv := make([]float64, m.Nf)
	var area [3][]float64
	for b := range area {
		area[b] = make([]float64, m.Nf)
	}
	for li := range m.Links {
		l := &m.Links[li]
		out := s.unw[li*m.Nf : (li+1)*m.Nf]
		if l.Kind == mangll.LinkBoundary {
			clear(out) // skipped by faceTerm
			continue
		}
		e, f := int(l.Elem), int(l.Face)
		for b := range area {
			m.FaceArea(e, f, b, area[b])
		}
		for fn, vn := range m.FaceIdx[f] {
			i := e*m.Np + int(vn)
			ux, uy, uz := s.Velocity(m.X[0][i], m.X[1][i], m.X[2][i])
			fv[fn] = ux*area[0][fn] + uy*area[1][fn] + uz*area[2][fn]
		}
		if l.Kind == mangll.LinkToFineQuad {
			m.SerialWork().InterpFaceToQuad(l, fv, out)
			continue
		}
		copy(out, fv)
	}
}

// MaxVelocity returns the global maximum speed (used for CFL).
func (s *Solver) MaxVelocity() float64 {
	m := s.Mesh
	vmax := 0.0
	for i := 0; i < m.NumLocal*m.Np; i++ {
		ux, uy, uz := s.Velocity(m.X[0][i], m.X[1][i], m.X[2][i])
		v := math.Sqrt(ux*ux + uy*uy + uz*uz)
		if v > vmax {
			vmax = v
		}
	}
	return mpi.AllreduceMax(s.Comm, vmax)
}

// DT returns the CFL time step.
func (s *Solver) DT() float64 {
	vmax := s.MaxVelocity()
	if vmax == 0 {
		return 1e-3
	}
	n := float64(s.Opts.Degree)
	return s.Opts.CFL * s.Mesh.MinLen / (vmax * (2*n + 1))
}

// RHS computes dC/dt in conservative curvilinear form:
// dC/dt = -(1/J) sum_a d/dxi_a (cv_a C) + lift of (F.n - F*).
//
// The schedule — split-phase ghost exchange overlapped with the volume
// kernels and the faces of interior elements, optional worker-pool
// fan-out — lives in
// mangll's kernel driver; the solver only supplies the hooks (advKernel).
// Blocking, overlapped, and pooled execution are bitwise identical.
func (s *Solver) RHS(c, dc []float64) {
	m := s.Mesh
	tRHS := time.Now()
	s.kC, s.kDC = c, dc
	m.ForRange(m.NumLocal*m.Np, s.fillFn)
	var wait time.Duration
	if s.Opts.NoOverlap {
		wait = m.ApplyBlocking(&s.kern, s.buf)
	} else {
		wait = m.Apply(&s.kern, s.buf)
	}
	s.hExch.ObserveDuration(wait)
	s.hRHS.ObserveDuration(time.Since(tRHS))
}

// volumeTerm accumulates the volume divergence of the given local
// elements.
func (s *Solver) volumeTerm(w *mangll.Work, elems []int32, c, dc []float64) {
	m := s.Mesh
	np := m.Np
	sc := &s.ws[w.ID()]
	tmp, fa := sc.tmp, sc.fa
	for _, e := range elems {
		base := int(e) * np
		for n := range tmp {
			tmp[n] = 0
		}
		for a := 0; a < 3; a++ {
			for n := 0; n < np; n++ {
				fa[n] = s.cv[a][base+n] * c[base+n]
			}
			w.ApplyD(a, fa, fa)
			for n := 0; n < np; n++ {
				tmp[n] += fa[n]
			}
		}
		for n := 0; n < np; n++ {
			dc[base+n] -= tmp[n] / m.Jac[base+n]
		}
	}
}

// faceTerm computes the surface flux of the given links (indices into
// Mesh.Links) and lifts each into dc at once. The driver hands every
// element its links in ascending order after its volume term, so results
// do not depend on which links were partition boundaries.
func (s *Solver) faceTerm(w *mangll.Work, links []int32, dc []float64) {
	m := s.Mesh
	sc := &s.ws[w.ID()]
	mine, theirs, g := sc.mine, sc.theirs, sc.g
	for _, li := range links {
		l := &m.Links[li]
		if l.Kind == mangll.LinkBoundary {
			continue // un = 0 on the shell boundaries for the rotation field
		}
		unw := s.unw[int(li)*m.Nf : (int(li)+1)*m.Nf]
		w.MyFaceValues(l, 1, 0, s.buf, mine)
		w.FaceValues(l, 1, 0, s.buf, theirs)
		for fn := 0; fn < m.Nf; fn++ {
			flux := unw[fn] * mine[fn] // F . n
			var star float64
			switch {
			case s.Opts.CentralFlux:
				star = unw[fn] * (mine[fn] + theirs[fn]) / 2
			case unw[fn] >= 0:
				star = unw[fn] * mine[fn]
			default:
				star = unw[fn] * theirs[fn]
			}
			g[fn] = flux - star
		}
		w.LiftFace(l, g, dc)
	}
}

// Step advances the solution by one RK step of size dt.
func (s *Solver) Step(dt float64) {
	t0 := time.Now()
	tr := s.Comm.Tracer()
	tr.Begin("solve")
	s.rk.Step(s.C, s.Time, dt, s.rhsFn)
	s.Time += dt
	tr.End()
	s.hInteg.ObserveDuration(time.Since(t0))
	s.live.Tick(s.Time)
}

// Indicator returns the per-element adaptation indicator: the nodal value
// range, which is large across the advecting fronts.
func (s *Solver) Indicator() []float64 {
	m := s.Mesh
	ind := make([]float64, m.NumLocal)
	for e := 0; e < m.NumLocal; e++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for n := 0; n < m.Np; n++ {
			v := s.C[e*m.Np+n]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		ind[e] = hi - lo
	}
	return ind
}

// Adapt performs one full dynamic-AMR cycle (sim.Cycle): mark from the
// indicator, coarsen, refine, 2:1 balance, transfer the solution between
// meshes, repartition (moving the solution along), and rebuild the dG
// mesh. It returns whether the forest changed; the cycle records the churn
// statistics the paper quotes (elements coarsened, refined, and shipped).
func (s *Solver) Adapt() bool {
	ind := s.Indicator()
	return sim.Cycle{
		Forest: s.F, Met: s.Met, MaxLevel: s.Opts.MaxLevel,
		Flag: func(e int, o octant.Octant) int8 {
			switch {
			case ind[e] > s.Opts.RefineTol && o.Level < s.Opts.MaxLevel:
				return 1
			case ind[e] < s.Opts.CoarsenTol && o.Level > s.Opts.Level:
				return -1
			}
			return 0
		},
		Mesh: s.Mesh, NC: 1, Field: &s.C, Rebuild: s.rebuild,
	}.Run()
}

// Mass returns the global integral of C (conserved by the dG scheme up to
// boundary flux, which vanishes for the rotation field).
func (s *Solver) Mass() float64 {
	m := s.Mesh
	np1 := m.Np1
	var sum float64
	for e := 0; e < m.NumLocal; e++ {
		n := 0
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					sum += m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[e*m.Np+n] * s.C[e*m.Np+n]
					n++
				}
			}
		}
	}
	return mpi.AllreduceSumFloat(s.Comm, sum)
}

// ErrorVsExact returns the global L2 error against the exact rotated
// solution at the current time.
func (s *Solver) ErrorVsExact() float64 {
	m := s.Mesh
	np1 := m.Np1
	cos, sin := math.Cos(-s.Opts.Omega*s.Time), math.Sin(-s.Opts.Omega*s.Time)
	var sum float64
	for e := 0; e < m.NumLocal; e++ {
		n := 0
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					idx := e*m.Np + n
					x, y, z := m.X[0][idx], m.X[1][idx], m.X[2][idx]
					xr, yr := cos*x-sin*y, sin*x+cos*y
					d := s.C[idx] - s.InitialCondition(xr, yr, z)
					sum += m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[idx] * d * d
					n++
				}
			}
		}
	}
	return math.Sqrt(mpi.AllreduceSumFloat(s.Comm, sum))
}
