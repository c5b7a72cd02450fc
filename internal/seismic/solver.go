package seismic

import (
	"math"
	"slices"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// NC is the number of fields per node: velocity (3) and the symmetric
// strain tensor (6: xx yy zz yz xz xy).
const NC = 9

// Options configure the wave propagation solver.
type Options struct {
	Degree   int // polynomial degree (paper: N = 6 and N = 7)
	CFL      float64
	FreqHz   float64 // source frequency used for wavelength meshing
	PPW      float64 // points per wavelength (paper: "at least 10")
	MaxLevel int8
	MinLevel int8
}

// DefaultOptions mirrors the paper's setup at laptop scale.
func DefaultOptions() Options {
	return Options{Degree: 4, CFL: 0.4, FreqHz: 0.002, PPW: 8, MaxLevel: 5, MinLevel: 1}
}

// Solver advances the velocity-strain elastic system on a forest mesh.
type Solver struct {
	Opts Options
	Comm *mpi.Comm
	Conn *connectivity.Conn
	F    *core.Forest
	Mesh *mangll.Mesh
	LGL  *mangll.LGL
	Met  *metrics.Registry

	// The live progress gauges /healthz reads. Time is recorded as the
	// rank's trace spans: "step", "rhs" and the mesh's "exchange".
	live metrics.Progress

	// Q holds the 9 fields per node, local elements only: the head of the
	// kernels' local+ghost array, re-seated by every rebuild. Assign its
	// elements, never the slice.
	Q    []float64
	Time float64

	MatFn func(p [3]float64) Material

	// The kernels' tables in double precision, rebuilt with the mesh: the
	// metric rows are carried with the elements the mesh keeps, the rest
	// filled in again.
	k    kernels[float64]
	kern seisKernel
	rk   mangll.LSRK45

	kT       float64 // time of the RHS evaluation in progress
	rhsFn    func(tt float64, u, du []float64)
	sourceFn func(w *mangll.Work, lo, hi int) // RHS's body-force sweep

	// Source, if non-nil, adds a body-force density to the velocity
	// equations: f(t, x). Like MatFn it must be pure: kernel hooks may
	// evaluate it from pool workers.
	Source func(t float64, p [3]float64) [3]float64

	maxVp float64
}

// kernels is what the seismic kernels read, in precision T: the metric
// (1/J and J dxi/dx, the solver's own: the mesh keeps neither), the
// material and the flux-point tables, the local+ghost state array they
// gather from, the residual they accumulate into, and one scratch set per
// worker. The physics is written once, over it; the host runs it at
// float64 and the device (NewDevice) at float32.
type kernels[T mangll.Float] struct {
	m      *mangll.Mesh
	invJac []T
	gi     [3][3][]T
	mat    []nodeMat[T] // per local node

	// Time-invariant face data, tabulated once per mesh so no stage
	// re-derives it: the flux points of every conforming face, by
	// (element, face), and — with their material, which sits off the
	// element's nodes — of every LinkToFineQuad link, Nf rows from
	// fineOff[link].
	faceGeo []facePoint[T]
	fineGeo []facePoint[T]
	fineMat []nodeMat[T]
	fineOff []int32

	buf, dq []T
	// Per-worker hot-path scratch, allocated once so RHS is
	// allocation-free in steady state; the serial path uses ws[0].
	ws []seisScratch[T]
}

// nodeMat is one point's material row: the model's parameters plus the two
// derived values every stage would otherwise recompute.
type nodeMat[T mangll.Float] struct {
	Rho, Lambda, Mu, InvRho, Vp T
}

func newNodeMat(mt Material) nodeMat[float64] {
	return nodeMat[float64]{Rho: mt.Rho, Lambda: mt.Lambda, Mu: mt.Mu, InvRho: 1 / mt.Rho, Vp: mt.Vp()}
}

// facePoint is the geometry of one flux point: unit outward normal and
// area magnitude. A degenerate point (zero area vector) has a zero normal,
// so its flux vanishes instead of dividing by zero.
type facePoint[T mangll.Float] struct {
	N    [3]T
	Area T
}

func newFacePoint(av [3]float64) facePoint[float64] {
	sa := math.Sqrt(av[0]*av[0] + av[1]*av[1] + av[2]*av[2])
	if sa == 0 {
		return facePoint[float64]{}
	}
	return facePoint[float64]{N: [3]float64{av[0] / sa, av[1] / sa, av[2] / sa}, Area: sa}
}

// seisScratch is one worker's kernel buffers.
type seisScratch[T mangll.Float] struct {
	blk        []T          // NC x np: velocity and stress, component-major
	d0, d1, d2 []T          // np: reference derivatives of one component
	met        []T          // 9 x np: (1/J) J dxi_r/dx_b at met[(3r+b)*np:]
	grad       []T          // 18 x np: the physical derivatives RHS uses
	mine, nbr  []T          // nf x NC, node-major: interpolated faces
	g          []T          // nf x NC: the fluxes of a hanging quadrant
	xs, area   [][3]float64 // nf (host table build only)
	fx, fq     []float64    // nf (host table build only)
}

func newScratch[T mangll.Float](np, nf int) seisScratch[T] {
	return seisScratch[T]{
		blk:  make([]T, NC*np),
		d0:   make([]T, np),
		d1:   make([]T, np),
		d2:   make([]T, np),
		met:  make([]T, 9*np),
		grad: make([]T, 3*NC*np),
		mine: make([]T, nf*NC),
		nbr:  make([]T, nf*NC),
		g:    make([]T, nf*NC),
	}
}

// seisKernel adapts the solver to the mangll.Kernel interface. It is a
// field of Solver so the interface conversion (&s.kern) never allocates.
type seisKernel struct{ s *Solver }

func (k *seisKernel) NumComps() int { return NC }

func (k *seisKernel) Volume(w *mangll.Work, elems []int32) {
	k.s.k.volumeTerm(w, elems)
}

func (k *seisKernel) InteriorFace(w *mangll.Work, links []int32) {
	k.s.k.surfaceTerm(w, links)
}

func (k *seisKernel) BoundaryFace(w *mangll.Work, links []int32) {
	k.s.k.surfaceTerm(w, links)
}

// NewSolver builds a solver over an existing (balanced, partitioned)
// forest with the given material model.
func NewSolver(comm *mpi.Comm, f *core.Forest, opts Options, matFn func(p [3]float64) Material) *Solver {
	s := &Solver{
		Opts: opts, Comm: comm, Conn: f.Conn, F: f,
		LGL: mangll.NewLGL(opts.Degree), MatFn: matFn,
		Met: metrics.NewRegistry(),
	}
	s.live = metrics.NewProgress(s.Met)
	s.kern = seisKernel{s: s}
	// One closure for the integrator, built once so Step allocates nothing.
	s.rhsFn = func(tt float64, u, du []float64) { s.RHS(tt, u, du) }
	s.sourceFn = func(_ *mangll.Work, lo, hi int) { s.k.addSource(s.Source, s.kT, lo, hi) }
	s.rebuild()
	return s
}

// rebuild brings ghost layer, mesh and the per-mesh tables up to date after
// the forest changed. The mesh is rebuilt in place. The metric rows of the
// elements it kept (Mesh.Src) are carried along and those of the others
// derived from the mesh (Mesh.Metric); the other tables keep their storage
// and are filled again in full. The state, which the adapt cycle left in an
// array of its own, moves to the head of the local+ghost array.
func (s *Solver) rebuild() {
	g := s.F.Ghost()
	if s.Mesh == nil {
		s.Mesh = mangll.NewMesh(s.F, g, s.LGL)
		s.rk.ForRange = s.Mesh.ForRange
		np, nf := s.Mesh.Np, s.Mesh.Nf
		s.k.m = s.Mesh
		s.k.ws = make([]seisScratch[float64], s.Comm.Workers())
		for w := range s.k.ws {
			sc := newScratch[float64](np, nf)
			sc.xs, sc.area = make([][3]float64, nf), make([][3]float64, nf)
			sc.fx, sc.fq = make([]float64, nf), make([]float64, nf)
			s.k.ws[w] = sc
		}
	} else {
		s.Mesh.Rebuild(g)
	}
	m, k := s.Mesh, &s.k
	np := m.Np
	for a := range k.gi {
		for b := range k.gi[a] {
			k.gi[a][b] = mangll.Carry(k.gi[a][b], m.Src, np)
		}
	}
	k.invJac = mangll.Carry(k.invJac, m.Src, np)
	m.ForRange(m.NumLocal, func(w *mangll.Work, lo, hi int) {
		for e := lo; e < hi; e++ {
			if m.Src[e] >= 0 {
				continue
			}
			gi, jac := m.Metric(w, e)
			base := e * np
			for a := range gi {
				for b := range gi[a] {
					copy(k.gi[a][b][base:base+np], gi[a][b])
				}
			}
			for n, j := range jac {
				k.invJac[base+n] = 1 / j
			}
		}
	})
	k.mat = mangll.Resize(k.mat, m.NumLocal*m.Np)
	vp := make([]float64, s.Comm.Workers())
	m.ForRange(len(k.mat), func(w *mangll.Work, lo, hi int) {
		for i := lo; i < hi; i++ {
			k.mat[i] = newNodeMat(s.MatFn([3]float64{m.X[0][i], m.X[1][i], m.X[2][i]}))
			vp[w.ID()] = max(vp[w.ID()], k.mat[i].Vp)
		}
	})
	s.maxVp = mpi.AllreduceMax(s.Comm, slices.Max(vp))
	k.buf = mangll.Resize(k.buf, (m.NumLocal+m.NumGhost)*m.Np*NC)
	copy(k.buf, s.Q)
	s.Q = k.buf[:m.NumLocal*m.Np*NC]
	s.buildFaceTables()
}

// buildFaceTables tabulates the flux-point rows the face kernel reads (see
// the Solver fields). Conforming flux points are the element's own face
// nodes, so their material is the node's row; the points of a hanging
// quadrant lie between nodes and get geometry and material of their own.
func (s *Solver) buildFaceTables() {
	m, k := s.Mesh, &s.k
	nf := m.Nf
	k.faceGeo = mangll.Resize(k.faceGeo, m.NumLocal*6*nf)
	m.ForRange(m.NumLocal*6, func(w *mangll.Work, lo, hi int) {
		sc := &k.ws[w.ID()]
		for ef := lo; ef < hi; ef++ {
			gi := k.elemMetric(ef / 6)
			for b := 0; b < 3; b++ {
				m.FaceArea(&gi, ef%6, b, sc.fx)
				for fn, v := range sc.fx {
					sc.area[fn][b] = v
				}
			}
			rows := k.faceGeo[ef*nf : (ef+1)*nf]
			for fn := range rows {
				rows[fn] = newFacePoint(sc.area[fn])
			}
		}
	})
	k.fineOff = mangll.Resize(k.fineOff, len(m.Links))
	nfine := 0
	for li := range m.Links {
		k.fineOff[li] = int32(nfine * nf) // read for LinkToFineQuad links only
		if m.Links[li].Kind == mangll.LinkToFineQuad {
			nfine++
		}
	}
	k.fineGeo = mangll.Resize(k.fineGeo, nfine*nf)
	k.fineMat = mangll.Resize(k.fineMat, nfine*nf)
	m.ForRange(len(m.Links), func(w *mangll.Work, lo, hi int) {
		sc := &k.ws[w.ID()]
		for li := lo; li < hi; li++ {
			l := &m.Links[li]
			if l.Kind != mangll.LinkToFineQuad {
				continue
			}
			s.fluxGeometry(w, l, sc.xs, sc.area)
			o := int(k.fineOff[li])
			for fn := 0; fn < nf; fn++ {
				k.fineGeo[o+fn] = newFacePoint(sc.area[fn])
				k.fineMat[o+fn] = newNodeMat(s.MatFn(sc.xs[fn]))
			}
		}
	})
}

// DT returns the CFL-limited time step.
func (s *Solver) DT() float64 {
	n := float64(s.Opts.Degree)
	return s.Opts.CFL * s.Mesh.MinLen / (s.maxVp * (2*n + 1))
}

// stress computes the stress components from the strain components of one
// node: sigma = 2 mu E + lambda tr(E) I, ordered xx yy zz yz xz xy. It is
// small enough to inline into the flux and volume loops; 2 mu is formed
// once, the same product (2*mu)*e the expression spelled out gives.
func stress[T mangll.Float](mat *nodeMat[T], e []T) (sxx, syy, szz, syz, sxz, sxy T) {
	e = e[:6]
	tr := e[0] + e[1] + e[2]
	l, mu2 := mat.Lambda, 2*mat.Mu
	return mu2*e[0] + l*tr, mu2*e[1] + l*tr, mu2*e[2] + l*tr, mu2 * e[3], mu2 * e[4], mu2 * e[5]
}

// RHS computes dq/dt: non-conservative volume derivatives plus the
// dissipative Rusanov interface flux and the free-surface boundary flux.
//
// As in dGea, the ghost exchange is hidden behind element-local work: the
// schedule — split-phase exchange overlapped with the volume kernels and
// the faces of interior elements, optional worker-pool fan-out — lives in
// mangll's kernel driver; the solver supplies the hooks (seisKernel).
// Serial and pooled execution are bitwise equal. q must be s.Q, which the
// kernels read in place.
func (s *Solver) RHS(t float64, q, dq []float64) {
	if len(q) != len(s.Q) || len(q) > 0 && &q[0] != &s.Q[0] {
		panic("seismic: RHS input is not the solver's state")
	}
	m := s.Mesh
	tr := s.Comm.Tracer()
	tr.Begin("rhs")
	s.k.dq, s.kT = dq, t
	m.Apply(&s.kern, s.k.buf)

	if s.Source != nil {
		m.ForRange(m.NumLocal*m.Np, s.sourceFn)
	}
	tr.End()
}

// gradUsed[c][b] tells whether RHS reads d/dx_b of component c of the
// (velocity, stress) block: every derivative of the velocities (sym grad
// v), but of stress sigma_ab only those along a and b (div sigma).
var gradUsed = [NC][3]bool{
	{true, true, true}, {true, true, true}, {true, true, true},
	{true, false, false}, {false, true, false}, {false, false, true}, // xx yy zz
	{false, true, true}, {true, false, true}, {true, true, false}, // yz xz xy
}

// volumeTerm accumulates the non-conservative volume derivatives of the
// given local elements into dq, one fused pass per element: velocity and
// stress into a component-major block, the metric scaled by 1/J once per
// node, one three-direction derivative sweep per component.
func (k *kernels[T]) volumeTerm(w *mangll.WorkOf[T], elems []int32) {
	np := k.m.Np
	q, dq := k.buf, k.dq
	sc := &k.ws[w.ID()]
	blk, met := sc.blk, sc.met
	row := func(a []T, i int) []T { return a[i*np : (i+1)*np : (i+1)*np] }
	grad := func(c, b int) []T { return row(sc.grad, 3*c+b) }
	for _, e := range elems {
		base := int(e) * np
		mat := k.mat[base : base+np]
		for nn := range mat {
			qn := q[(base+nn)*NC : (base+nn+1)*NC]
			blk[nn], blk[np+nn], blk[2*np+nn] = qn[0], qn[1], qn[2]
			blk[3*np+nn], blk[4*np+nn], blk[5*np+nn], blk[6*np+nn], blk[7*np+nn], blk[8*np+nn] =
				stress(&mat[nn], qn[3:])
		}
		for r := 0; r < 3; r++ {
			for b := 0; b < 3; b++ {
				scale(row(met, 3*r+b), k.invJac[base:], k.gi[r][b][base:])
			}
		}
		// Physical gradients of v (3 comps) and sigma (6 comps): each sums
		// the three reference directions in order, from zero.
		for c := 0; c < NC; c++ {
			w.Gradient(row(blk, c), sc.d0, sc.d1, sc.d2)
			for b := 0; b < 3; b++ {
				if gradUsed[c][b] {
					metricDot(grad(c, b), row(met, b), row(met, 3+b), row(met, 6+b), sc.d0, sc.d1, sc.d2)
				}
			}
		}
		// dv_a = (1/rho) d sigma_ab / dx_b (sigma rows are comps 3..8);
		// dE = sym grad v.
		sxx0, sxy1, sxz2 := grad(3, 0), grad(8, 1), grad(7, 2)
		sxy0, syy1, syz2 := grad(8, 0), grad(4, 1), grad(6, 2)
		sxz0, syz1, szz2 := grad(7, 0), grad(6, 1), grad(5, 2)
		vx0, vx1, vx2 := grad(0, 0), grad(0, 1), grad(0, 2)
		vy0, vy1, vy2 := grad(1, 0), grad(1, 1), grad(1, 2)
		vz0, vz1, vz2 := grad(2, 0), grad(2, 1), grad(2, 2)
		for nn := range mat {
			d := dq[(base+nn)*NC : (base+nn+1)*NC]
			ir := mat[nn].InvRho
			d[0] += ir * (sxx0[nn] + sxy1[nn] + sxz2[nn])
			d[1] += ir * (sxy0[nn] + syy1[nn] + syz2[nn])
			d[2] += ir * (sxz0[nn] + syz1[nn] + szz2[nn])
			d[3] += vx0[nn]
			d[4] += vy1[nn]
			d[5] += vz2[nn]
			d[6] += (vy2[nn] + vz1[nn]) / 2
			d[7] += (vx2[nn] + vz0[nn]) / 2
			d[8] += (vx1[nn] + vy0[nn]) / 2
		}
	}
}

// scale sets o[i] = a[i] * b[i].
func scale[T mangll.Float](o, a, b []T) {
	a, b = a[:len(o)], b[:len(o)]
	for i := range o {
		o[i] = a[i] * b[i]
	}
}

// metricDot sets o[i] to the sum over the three reference directions of
// scaled metric times reference derivative, added in order from zero.
func metricDot[T mangll.Float](o, m0, m1, m2, d0, d1, d2 []T) {
	n := len(o)
	m0, m1, m2, d0, d1, d2 = m0[:n], m1[:n], m2[:n], d0[:n], d1[:n], d2[:n]
	for i := range o {
		var g T
		g += m0[i] * d0[i]
		g += m1[i] * d1[i]
		g += m2[i] * d2[i]
		o[i] = g
	}
}

// surfaceTerm computes the face fluxes of the given links (indices into
// Mesh.Links) and lifts each into dq at once, all components per flux
// point. A conforming, free-surface or to-coarse link walks its flux
// points — my face nodes — in place through the link's FaceMap: q- and
// the material read at my node, q+ at the neighbour's node (or in the
// interpolated coarse face), the flux lifted straight into dq. A
// to-fine-quad link interpolates my face onto the quadrant's fine points,
// where its tabulated geometry and material sit, and lifts the fluxes
// there through the weighted transpose. Free-surface links are ordinary
// links of their element — they read only local data.
func (k *kernels[T]) surfaceTerm(w *mangll.WorkOf[T], links []int32) {
	sc := &k.ws[w.ID()]
	nf := k.m.Nf
	buf, dq := k.buf, k.dq
	var g [NC]T
	for _, li := range links {
		l := &k.m.Links[li]
		mine, nbr, wgt := w.FaceMap(l)
		if l.Kind == mangll.LinkToFineQuad {
			w.InterpFaceAll(l, NC, buf, sc.mine)
			o := int(k.fineOff[li])
			geo, mat := k.fineGeo[o:o+nf], k.fineMat[o:o+nf]
			for fn, vn := range nbr {
				rusanovPoint(&geo[fn], &mat[fn], sc.mine[fn*NC:(fn+1)*NC], buf[int(vn)*NC:int(vn+1)*NC],
					(*[NC]T)(sc.g[fn*NC:]))
			}
			w.LiftQuadAll(l, NC, sc.g, dq)
			continue
		}
		qp := buf
		if l.Kind == mangll.LinkToCoarse {
			w.InterpFaceAll(l, NC, buf, sc.nbr)
			qp = sc.nbr
		}
		o := (int(l.Elem)*6 + int(l.Face)) * nf
		geo := k.faceGeo[o : o+nf]
		for fn, vn := range mine {
			qm := buf[int(vn)*NC : int(vn+1)*NC]
			if l.Kind == mangll.LinkBoundary {
				freeSurfacePoint(&geo[fn], &k.mat[vn], qm, &g)
			} else {
				rusanovPoint(&geo[fn], &k.mat[vn], qm, qp[int(nbr[fn])*NC:int(nbr[fn]+1)*NC], &g)
			}
			d := dq[int(vn)*NC : int(vn+1)*NC]
			wg := wgt[fn]
			for c := range d {
				d[c] += wg * g[c]
			}
		}
	}
}

// addSource adds the body-force density src at time t to the velocity
// rows of dq at local nodes [lo, hi).
func (k *kernels[T]) addSource(src func(t float64, p [3]float64) [3]float64, t float64, lo, hi int) {
	m, dq := k.m, k.dq
	for i := lo; i < hi; i++ {
		f := src(t, [3]float64{m.X[0][i], m.X[1][i], m.X[2][i]})
		ir := k.mat[i].InvRho
		dq[i*NC+0] += ir * T(f[0])
		dq[i*NC+1] += ir * T(f[1])
		dq[i*NC+2] += ir * T(f[2])
	}
}

// rusanovPoint sets g = Fn(q-) - F* with the Rusanov F* at one flux
// point, for all components: row c is Area (0.5 (Fn(q-) - Fn(q+))_c +
// 0.5 Vp (q+ - q-)_c), where Fn(q) = F(q).n are the terms whose divergence
// the velocity-strain system evolves. Both normal fluxes are written out
// row by row, so that neither goes through memory.
func rusanovPoint[T mangll.Float](p *facePoint[T], mt *nodeMat[T], m, n []T, g *[NC]T) {
	m, n = m[:NC], n[:NC]
	nv, ir, a, hv := p.N, mt.InvRho, p.Area, 0.5*mt.Vp
	row := func(fm, fp, qm, qp T) T { return a * (0.5*(fm-fp) + hv*(qp-qm)) }
	mxx, myy, mzz, myz, mxz, mxy := stress(mt, m[3:])
	pxx, pyy, pzz, pyz, pxz, pxy := stress(mt, n[3:])
	// velocity rows: -(1/rho) sigma . n
	g[0] = row(-ir*(mxx*nv[0]+mxy*nv[1]+mxz*nv[2]), -ir*(pxx*nv[0]+pxy*nv[1]+pxz*nv[2]), m[0], n[0])
	g[1] = row(-ir*(mxy*nv[0]+myy*nv[1]+myz*nv[2]), -ir*(pxy*nv[0]+pyy*nv[1]+pyz*nv[2]), m[1], n[1])
	g[2] = row(-ir*(mxz*nv[0]+myz*nv[1]+mzz*nv[2]), -ir*(pxz*nv[0]+pyz*nv[1]+pzz*nv[2]), m[2], n[2])
	// strain rows: -sym(v (x) n)
	g[3] = row(-m[0]*nv[0], -n[0]*nv[0], m[3], n[3])
	g[4] = row(-m[1]*nv[1], -n[1]*nv[1], m[4], n[4])
	g[5] = row(-m[2]*nv[2], -n[2]*nv[2], m[5], n[5])
	g[6] = row(-(m[1]*nv[2]+m[2]*nv[1])/2, -(n[1]*nv[2]+n[2]*nv[1])/2, m[6], n[6])
	g[7] = row(-(m[0]*nv[2]+m[2]*nv[0])/2, -(n[0]*nv[2]+n[2]*nv[0])/2, m[7], n[7])
	g[8] = row(-(m[0]*nv[1]+m[1]*nv[0])/2, -(n[0]*nv[1]+n[1]*nv[0])/2, m[8], n[8])
}

// freeSurfacePoint applies the free-surface condition sigma.n = 0 weakly at
// one flux point: the traction is reflected, velocities pass through. With
// sigma+.n = -sigma-.n and v+ = v-, F*_v = 0, so G_v = Fn_v(q-) = -(1/rho)
// tau and the strain rows vanish.
func freeSurfacePoint[T mangll.Float](p *facePoint[T], mt *nodeMat[T], qm []T, g *[NC]T) {
	n := p.N
	// Traction of the interior state.
	sxx, syy, szz, syz, sxz, sxy := stress(mt, qm[3:NC])
	tau := [3]T{
		sxx*n[0] + sxy*n[1] + sxz*n[2],
		sxy*n[0] + syy*n[1] + syz*n[2],
		sxz*n[0] + syz*n[1] + szz*n[2],
	}
	*g = [NC]T{}
	g[0] = -p.Area * mt.InvRho * tau[0]
	g[1] = -p.Area * mt.InvRho * tau[1]
	g[2] = -p.Area * mt.InvRho * tau[2]
}

// elemMetric returns the rows of local element e in the metric table gi.
func (k *kernels[T]) elemMetric(e int) (gi [3][3][]T) {
	np := k.m.Np
	for a := range gi {
		for b := range gi[a] {
			gi[a][b] = k.gi[a][b][e*np : (e+1)*np]
		}
	}
	return gi
}

// fluxGeometry evaluates the physical coordinates and outward area vectors
// at the flux points of a LinkToFineQuad link, interpolated from the
// element's face nodes onto the quadrant (a setup-path helper: the kernels
// read the tables built from it).
func (s *Solver) fluxGeometry(w *mangll.Work, l *mangll.FaceLink, xs, area [][3]float64) {
	m := s.Mesh
	e := int(l.Elem)
	sc := &s.k.ws[w.ID()]
	fx, fq := sc.fx, sc.fq
	gi := s.k.elemMetric(e)
	for a := 0; a < 3; a++ {
		for fn, vn := range m.FaceIdx[l.Face] {
			fx[fn] = m.X[a][e*m.Np+int(vn)]
		}
		w.InterpFaceToQuad(l, fx, fq)
		for fn, v := range fq {
			xs[fn][a] = v
		}
		m.FaceArea(&gi, int(l.Face), a, fx)
		w.InterpFaceToQuad(l, fx, fq)
		for fn, v := range fq {
			area[fn][a] = v
		}
	}
}

// Step advances one LSRK4(5) step.
func (s *Solver) Step(dt float64) {
	tr := s.Comm.Tracer()
	tr.Begin("step")
	s.rk.Step(s.Q, s.Time, dt, s.rhsFn)
	s.Time += dt
	tr.End()
	s.live.Tick(s.Time)
}

// Energy returns the global elastic energy 1/2 rho |v|^2 + 1/2 sigma:E.
func (s *Solver) Energy() float64 {
	return s.integrate(func(idx int) float64 {
		q := s.Q[idx*NC:]
		mt := &s.k.mat[idx]
		kin := 0.5 * mt.Rho * (q[0]*q[0] + q[1]*q[1] + q[2]*q[2])
		sxx, syy, szz, syz, sxz, sxy := stress(mt, q[3:9])
		el := 0.5 * (sxx*q[3] + syy*q[4] + szz*q[5] + 2*(syz*q[6]+sxz*q[7]+sxy*q[8]))
		return kin + el
	})
}

// integrate returns the global LGL quadrature of the nodal function f.
func (s *Solver) integrate(f func(idx int) float64) float64 {
	m := s.Mesh
	np1 := m.Np1
	var sum float64
	for e := 0; e < m.NumLocal; e++ {
		n := 0
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					idx := e*m.Np + n
					w := m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[idx]
					sum += w * f(idx)
					n++
				}
			}
		}
	}
	return mpi.AllreduceSumFloat(s.Comm, sum)
}

// FlopsPerStep returns the hand-counted floating-point operations of one
// full RK step on the current mesh (the accounting method the paper uses
// for its GPU table).
func (s *Solver) FlopsPerStep() float64 {
	m := s.Mesh
	np1 := float64(m.Np1)
	np := np1 * np1 * np1
	elems := float64(m.NumLocal)
	// Volume: 9 fields x 3 directions x 2(N+1) MAC per node, plus the
	// metric (9 scalings by 1/J, then 3 MAC for each of the 18 physical
	// derivatives the system reads) and stress evaluation (~30/node).
	volume := elems * np * (9*3*2*np1 + 9 + 18*3*2 + 30)
	// Surface: 6 faces x (N+1)^2 points x ~200 ops (two normal fluxes of
	// ~55, the Rusanov combination of 9 x 7, the lift of 9 x 2 + 2); the
	// geometry and material of a point are table reads, not operations.
	surface := elems * 6 * np1 * np1 * 200
	// RK update: 3 ops per dof per stage.
	update := elems * np * NC * 3
	local := (volume + surface + update) * 5
	return mpi.AllreduceSumFloat(s.Comm, local)
}
