// Package advect implements the paper's dynamic-AMR benchmark application
// (§III.B): the time-dependent advection equation dC/dt + u . grad C = 0,
// discretized with an upwind nodal discontinuous Galerkin method on
// tensor-product LGL points and integrated with the five-stage fourth-order
// low-storage Runge-Kutta scheme, on a dynamically refined, coarsened, and
// repartitioned forest-of-octrees mesh of the spherical shell.
package advect

import (
	"math"

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
	// C holds the solution nodal values of the local elements. It is the
	// head of the solver's local+ghost array, re-seated by every rebuild, so
	// the kernels read the state where the integrator updates it; assign its
	// elements, never the slice.
	C    []float64
	Time float64
	Met  *metrics.Registry

	// The live progress gauges /healthz reads. Time is recorded as the
	// rank's trace spans: "amr" (the initial mesh), "adapt", "solve" (one
	// step), "rhs" and the mesh's "exchange".
	live metrics.Progress

	rk   mangll.LSRK45
	cv   [3][]float64 // contravariant velocity J grad(xi_a) . u at local nodes
	vmax []float64    // largest speed |u| at each local element's nodes
	buf  []float64    // local+ghost array: the state C, then the ghost copies

	// Per-worker hot-path scratch, allocated once so RHS is
	// allocation-free in steady state. One entry per kernel worker; the
	// serial path uses ws[0].
	ws []advScratch
	// faceUn holds the normal flow u . areaVec at the face nodes of every
	// local element's six faces (Nf values per (element, face), row e*6+f),
	// unw the same at every link's flux points (Nf values per link,
	// element-major like Mesh.Links; zeros for domain-boundary links) and
	// cls the link's class, which says how much of the flux the signs of
	// those values leave to compute. The advecting velocity depends only on
	// position, so all three are fixed between adaptations: rebuild()
	// carries faceUn with the elements, like cv, and derives unw and cls
	// from it after every mesh change.
	faceUn []float64
	unw    []float64
	cls    []linkClass
	kern   advKernel
	kDC    []float64 // RHS output of the Apply in progress
	rhsFn  func(tt float64, u, du []float64)

	// Scratch of rebuild (face-sized) and Indicator.
	area [3][]float64
	ind  []float64

	velFn func(x, y, z float64) (float64, float64, float64)
	icFn  func(x, y, z float64) float64
}

// advScratch is one worker's element- and face-sized kernel buffers.
type advScratch struct {
	f, d            [3][]float64 // Np: the fluxes cv_a C and their derivatives
	mine, theirs, g []float64    // Nf
}

// linkClass is what the upwind flux leaves to do on a link, decided by the
// signs of the link's normal velocities (unw).
type linkClass uint8

const (
	// linkGeneral: signs differ between flux points (or the flux is
	// central); every point chooses its side.
	linkGeneral linkClass = iota
	// linkSkip: a domain-boundary link, or outflow (unw >= 0) at every
	// point. The upwind state is then the element's own, F.n - F* is x - x
	// = +0 for any finite x, and lifting zeros changes no bit of the
	// residual (DESIGN.md §5): the link costs nothing.
	linkSkip
	// linkInflow: unw < 0 at every point; the upwind state is the
	// neighbour's everywhere.
	linkInflow
)

// advKernel adapts the solver to the mangll.Kernel interface. It is a
// field of Solver so the interface conversion (&s.kern) never allocates.
type advKernel struct{ s *Solver }

func (k *advKernel) NumComps() int { return 1 }

func (k *advKernel) Volume(w *mangll.Work, elems []int32) {
	k.s.volumeTerm(w, elems, k.s.kDC)
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
	tr := comm.Tracer()
	tr.Begin("amr")
	s.F = core.New(comm, conn, opts.Level)
	s.F.Balance(core.BalanceFull)
	s.F.Partition()
	s.rebuild()
	tr.End()
	s.project(s.InitialCondition)
	// Resolve the initial fronts before starting, re-sampling the initial
	// condition on each refined mesh.
	for i := 0; i < int(opts.MaxLevel-opts.Level); i++ {
		changed := s.Adapt()
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
	s.kern = advKernel{s: s}
	// The integrator's closure, built once so Step allocates nothing.
	s.rhsFn = func(tt float64, u, du []float64) { s.RHS(u, du) }
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
// kept (Mesh.Src): their contravariant velocities, maximum speeds and face
// flows are carried along, those of the other elements computed from the
// metric the mesh derives for them (Mesh.Metric); the per-link normal
// velocities and classes are taken afresh from the face flows, links being
// renumbered by any change, so no kept element's metric is read. The state,
// which the adapt cycle or a checkpoint left in an array of its own, moves
// to the head of the local+ghost array.
func (s *Solver) rebuild() {
	g := s.F.Ghost()
	if s.Mesh == nil {
		s.Mesh = mangll.NewMesh(s.F, g, s.LGL)
		s.rk.ForRange = s.Mesh.ForRange
		np, nf := s.Mesh.Np, s.Mesh.Nf
		s.ws = make([]advScratch, s.Comm.Workers())
		for w := range s.ws {
			sc := &s.ws[w]
			for a := 0; a < 3; a++ {
				sc.f[a], sc.d[a] = make([]float64, np), make([]float64, np)
			}
			sc.mine, sc.theirs, sc.g = make([]float64, nf), make([]float64, nf), make([]float64, nf)
		}
		for b := range s.area {
			s.area[b] = make([]float64, nf)
		}
	} else {
		s.Mesh.Rebuild(g)
	}
	m := s.Mesh
	np, nf := m.Np, m.Nf
	for a := 0; a < 3; a++ {
		s.cv[a] = mangll.Carry(s.cv[a], m.Src, np)
	}
	s.vmax = mangll.Carry(s.vmax, m.Src, 1)
	s.faceUn = mangll.Carry(s.faceUn, m.Src, 6*nf)
	area := &s.area
	for e, from := range m.Src {
		if from >= 0 {
			continue
		}
		gi, _ := m.Metric(m.SerialWork(), e)
		vmax := 0.0
		for n := 0; n < np; n++ {
			i := e*np + n
			ux, uy, uz := s.Velocity(m.X[0][i], m.X[1][i], m.X[2][i])
			for a := 0; a < 3; a++ {
				s.cv[a][i] = gi[a][0][n]*ux + gi[a][1][n]*uy + gi[a][2][n]*uz
			}
			if v := math.Sqrt(ux*ux + uy*uy + uz*uz); v > vmax {
				vmax = v
			}
		}
		s.vmax[e] = vmax
		for f := 0; f < 6; f++ {
			for b := range area {
				m.FaceArea(gi, f, b, area[b])
			}
			un := s.faceUn[(e*6+f)*nf : (e*6+f+1)*nf]
			for fn, vn := range m.FaceIdx[f] {
				i := e*np + int(vn)
				ux, uy, uz := s.Velocity(m.X[0][i], m.X[1][i], m.X[2][i])
				un[fn] = ux*area[0][fn] + uy*area[1][fn] + uz*area[2][fn]
			}
		}
	}
	s.buf = mangll.Resize(s.buf, (m.NumLocal+m.NumGhost)*np)
	copy(s.buf, s.C)
	s.C = s.buf[:m.NumLocal*np]

	// Per-link normal velocities, the face flows of the link's face
	// (interpolated onto the quadrant grid for hanging faces), and what
	// their signs say about the upwind flux.
	s.unw = mangll.Resize(s.unw, len(m.Links)*nf)
	s.cls = mangll.Resize(s.cls, len(m.Links))
	for li := range m.Links {
		l := &m.Links[li]
		out := s.unw[li*nf : (li+1)*nf]
		if l.Kind == mangll.LinkBoundary {
			clear(out) // no normal flow through the domain boundary
			s.cls[li] = linkSkip
			continue
		}
		ef := int(l.Elem)*6 + int(l.Face)
		un := s.faceUn[ef*nf : (ef+1)*nf]
		if l.Kind == mangll.LinkToFineQuad {
			m.SerialWork().InterpFaceToQuad(l, un, out)
		} else {
			copy(out, un)
		}
		s.cls[li] = s.classify(out)
	}
}

// classify returns the class of an interior link with normal velocities
// unw. The central flux averages both sides wherever the flow goes.
func (s *Solver) classify(unw []float64) linkClass {
	out, in := !s.Opts.CentralFlux, !s.Opts.CentralFlux
	for _, u := range unw {
		out, in = out && u >= 0, in && u < 0
	}
	switch {
	case out:
		return linkSkip
	case in:
		return linkInflow
	}
	return linkGeneral
}

// MaxVelocity returns the global maximum speed (used for CFL).
func (s *Solver) MaxVelocity() float64 {
	vmax := 0.0
	for _, v := range s.vmax {
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
// dC/dt = -(1/J) sum_a d/dxi_a (cv_a C) + lift of (F.n - F*),
// accumulating into dc. c must be the solver's state s.C: the kernels and
// the ghost exchange read it in place, as the head of the local+ghost array.
//
// The schedule — split-phase ghost exchange overlapped with the volume
// kernels and the faces of interior elements, optional worker-pool
// fan-out — lives in
// mangll's kernel driver; the solver only supplies the hooks (advKernel).
// Serial and pooled execution are bitwise identical.
func (s *Solver) RHS(c, dc []float64) {
	if len(c) != len(s.C) || len(c) > 0 && &c[0] != &s.C[0] {
		panic("advect: RHS input is not the solver's state")
	}
	tr := s.Comm.Tracer()
	tr.Begin("rhs")
	s.kDC = dc
	s.Mesh.Apply(&s.kern, s.buf)
	tr.End()
}

// volumeTerm accumulates the volume divergence of the given local elements:
// per element, the three fluxes cv_a C in one sweep, one derivative of each,
// and one sweep that sums them over a ascending and divides by J.
func (s *Solver) volumeTerm(w *mangll.Work, elems []int32, dc []float64) {
	np := s.Mesh.Np
	sc := &s.ws[w.ID()]
	f0, f1, f2 := sc.f[0], sc.f[1], sc.f[2]
	d0, d1, d2 := sc.d[0][:np], sc.d[1][:np], sc.d[2][:np]
	for _, e := range elems {
		lo, hi := int(e)*np, (int(e)+1)*np
		c := s.buf[lo:hi]
		cv0, cv1, cv2 := s.cv[0][lo:hi], s.cv[1][lo:hi], s.cv[2][lo:hi]
		for n, v := range c {
			f0[n], f1[n], f2[n] = cv0[n]*v, cv1[n]*v, cv2[n]*v
		}
		w.ApplyD(0, f0, d0)
		w.ApplyD(1, f1, d1)
		w.ApplyD(2, f2, d2)
		jac, out := s.Mesh.Jac[lo:hi], dc[lo:hi]
		for n := range d0 {
			out[n] -= (d0[n] + d1[n] + d2[n]) / jac[n]
		}
	}
}

// faceTerm computes the surface flux of the given links (indices into
// Mesh.Links) and lifts each into dc at once. The driver hands every
// element its links in ascending order after its volume term, so results
// do not depend on which links were partition boundaries. The products are
// rounded before they are subtracted (the float64 conversions keep a
// compiler from fusing them), so that own-side flux minus own-side upwind
// flux is exactly zero — what lets linkSkip links be skipped.
func (s *Solver) faceTerm(w *mangll.Work, links []int32, dc []float64) {
	m := s.Mesh
	sc := &s.ws[w.ID()]
	mine, theirs, g := sc.mine, sc.theirs, sc.g
	for _, li := range links {
		cls := s.cls[li]
		if cls == linkSkip {
			continue
		}
		l := &m.Links[li]
		unw := s.unw[int(li)*m.Nf : (int(li)+1)*m.Nf]
		w.MyFaceValues(l, 1, 0, s.buf, mine)
		w.FaceValues(l, 1, 0, s.buf, theirs)
		switch {
		case cls == linkInflow:
			for fn, un := range unw {
				g[fn] = float64(un*mine[fn]) - float64(un*theirs[fn])
			}
		case s.Opts.CentralFlux:
			for fn, un := range unw {
				g[fn] = float64(un*mine[fn]) - un*(mine[fn]+theirs[fn])/2
			}
		default:
			for fn, un := range unw {
				star := mine[fn] // upwind state
				if !(un >= 0) {
					star = theirs[fn]
				}
				g[fn] = float64(un*mine[fn]) - float64(un*star)
			}
		}
		w.LiftFace(l, g, dc)
	}
}

// Step advances the solution by one RK step of size dt.
func (s *Solver) Step(dt float64) {
	tr := s.Comm.Tracer()
	tr.Begin("solve")
	s.rk.Step(s.C, s.Time, dt, s.rhsFn)
	s.Time += dt
	tr.End()
	s.live.Tick(s.Time)
}

// Indicator returns the per-element adaptation indicator: the nodal value
// range, which is large across the advecting fronts. The slice is the
// solver's and is overwritten by the next call.
func (s *Solver) Indicator() []float64 {
	m := s.Mesh
	s.ind = mangll.Resize(s.ind, m.NumLocal)
	ind := s.ind
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
