package seismic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mangll"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// This file keeps the elastic face kernel as it was before the face hook
// walked its flux points in place — every link gathers both sides' face
// values into node-major buffers (the neighbour's through the alignment
// permutation, hanging faces through the generic tensor loop), forms its
// fluxes row by row with rusanovFlux or freeSurfaceFlux, and lifts them
// from a buffer — as the oracle RHS is compared against, bit for bit.

// fluxNormal evaluates F(q).n for the velocity-strain system at one point
// with unit normal n: the terms whose divergence the system evolves.
func fluxNormal[T mangll.Float](mat *nodeMat[T], q []T, n [3]T, out []T) {
	q, out = q[:NC], out[:NC]
	sxx, syy, szz, syz, sxz, sxy := stress(mat, q[3:])
	ir := mat.InvRho
	// velocity rows: -(1/rho) sigma . n
	out[0] = -ir * (sxx*n[0] + sxy*n[1] + sxz*n[2])
	out[1] = -ir * (sxy*n[0] + syy*n[1] + syz*n[2])
	out[2] = -ir * (sxz*n[0] + syz*n[1] + szz*n[2])
	// strain rows: -sym(v (x) n)
	vx, vy, vz := q[0], q[1], q[2]
	out[3] = -vx * n[0]
	out[4] = -vy * n[1]
	out[5] = -vz * n[2]
	out[6] = -(vy*n[2] + vz*n[1]) / 2
	out[7] = -(vx*n[2] + vz*n[0]) / 2
	out[8] = -(vx*n[1] + vy*n[0]) / 2
}

// rusanovFlux evaluates G = Fn(q-) - F* with the Rusanov F* at every flux
// point, for all components; qm, qp and g are node-major.
func rusanovFlux[T mangll.Float](geo []facePoint[T], mat []nodeMat[T], qm, qp, g []T) {
	var fm, fp [NC]T
	for fn := range geo {
		p, mt := &geo[fn], &mat[fn]
		m, n := qm[fn*NC:(fn+1)*NC], qp[fn*NC:(fn+1)*NC]
		fluxNormal(mt, m, p.N, fm[:])
		fluxNormal(mt, n, p.N, fp[:])
		gn := g[fn*NC : (fn+1)*NC]
		for c := range gn {
			gn[c] = p.Area * (0.5*(fm[c]-fp[c]) + 0.5*mt.Vp*(n[c]-m[c]))
		}
	}
}

// freeSurfaceFlux is the free-surface flux: G_v = -(1/rho) tau, the strain
// rows zero.
func freeSurfaceFlux[T mangll.Float](geo []facePoint[T], mat []nodeMat[T], qm, g []T) {
	for fn := range geo {
		p, mt := &geo[fn], &mat[fn]
		n := p.N
		sxx, syy, szz, syz, sxz, sxy := stress(mt, qm[fn*NC+3:(fn+1)*NC])
		tau := [3]T{
			sxx*n[0] + sxy*n[1] + sxz*n[2],
			sxy*n[0] + syy*n[1] + syz*n[2],
			sxz*n[0] + syz*n[1] + szz*n[2],
		}
		gn := g[fn*NC : (fn+1)*NC]
		for c := range gn {
			gn[c] = 0
		}
		gn[0] = -p.Area * mt.InvRho * tau[0]
		gn[1] = -p.Area * mt.InvRho * tau[1]
		gn[2] = -p.Area * mt.InvRho * tau[2]
	}
}

// refFaces is the face side of the oracle in precision T: the operators
// mangll's face kernels read, rebuilt from the mesh's LGL the way
// NewMesh builds them and converted as NewWorkOf converts them.
type refFaces[T mangll.Float] struct {
	m                    *mangll.Mesh
	ilo, ihi, pwlo, pwhi []T
	w, massInv           []T
	face, nb, wk, tmp, g []T
	mat                  []nodeMat[T]
}

func newRefFaces[T mangll.Float](m *mangll.Mesh) *refFaces[T] {
	n1, nf := m.Np1, m.Nf
	lo, hi := m.L.HalfInterp()
	flat := func(rows [][]float64, weighted bool) []T {
		out := make([]T, 0, n1*n1)
		for i := 0; i < n1; i++ {
			for j := 0; j < n1; j++ {
				v := rows[i][j]
				if weighted { // Pw[i][j] = 0.5 * W[j] * I[j][i]
					v = 0.5 * m.L.W[j] * rows[j][i]
				}
				out = append(out, T(v))
			}
		}
		return out
	}
	return &refFaces[T]{
		m: m, ilo: flat(lo, false), ihi: flat(hi, false), pwlo: flat(lo, true), pwhi: flat(hi, true),
		w: mangll.Convert[T](m.L.W), massInv: mangll.Convert[T](m.MassInv),
		face: make([]T, nf*NC), nb: make([]T, nf*NC), wk: make([]T, nf*NC), tmp: make([]T, nf*NC), g: make([]T, nf*NC),
		mat: make([]nodeMat[T], nf),
	}
}

// tensor applies A (x) B to a node-major face (the generic loop).
func (r *refFaces[T]) tensor(a, b, u, out []T) {
	n, nc, tmp := r.m.Np1, NC, r.tmp
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			t := tmp[(i+n*j)*nc : (i+n*j+1)*nc]
			for c := range t {
				t[c] = 0
			}
			for p, ap := range a[i*n : i*n+n] {
				up := u[(p+n*j)*nc : (p+n*j+1)*nc]
				for c := range t {
					t[c] += ap * up[c]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			o := out[(i+n*j)*nc : (i+n*j+1)*nc]
			for c := range o {
				o[c] = 0
			}
			for q, bq := range b[j*n : j*n+n] {
				tq := tmp[(i+n*q)*nc : (i+n*q+1)*nc]
				for c := range o {
					o[c] += bq * tq[c]
				}
			}
		}
	}
}

func quadrantOf[T mangll.Float](lo, hi []T, l *mangll.FaceLink) (qi, qj []T) {
	qi, qj = lo, lo
	if l.QuadI == 1 {
		qi = hi
	}
	if l.QuadJ == 1 {
		qj = hi
	}
	return qi, qj
}

// gather copies the NC values of every node of face f of local+ghost
// element e of field into out, node-major.
func (r *refFaces[T]) gather(field []T, e int, f int8, out []T) {
	m := r.m
	for fn, vn := range m.FaceIdx[f] {
		copy(out[fn*NC:(fn+1)*NC], field[(e*m.Np+int(vn))*NC:])
	}
}

// mine is my face's values at the link's flux points.
func (r *refFaces[T]) mine(l *mangll.FaceLink, field, out []T) {
	if l.Kind != mangll.LinkToFineQuad {
		r.gather(field, int(l.Elem), l.Face, out)
		return
	}
	r.gather(field, int(l.Elem), l.Face, r.face)
	qi, qj := quadrantOf(r.ilo, r.ihi, l)
	r.tensor(qi, qj, r.face, out)
}

// theirs is the neighbour's face values facing my flux points.
func (r *refFaces[T]) theirs(l *mangll.FaceLink, field, out []T) {
	m := r.m
	nbr := int(l.Nbr)
	if l.NbrGhost {
		nbr += m.NumLocal
	}
	r.gather(field, nbr, l.NbrFace, r.nb)
	src := r.nb
	if l.Kind == mangll.LinkToCoarse {
		qi, qj := quadrantOf(r.ilo, r.ihi, l)
		r.tensor(qi, qj, r.nb, r.wk)
		src = r.wk
	}
	for j := 0; j < m.Np1; j++ {
		for i := 0; i < m.Np1; i++ {
			i2, j2 := l.MapIndex(m.L.N, i, j)
			p := i2 + m.Np1*j2
			copy(out[(i+m.Np1*j)*NC:(i+m.Np1*j+1)*NC], src[p*NC:])
		}
	}
}

// lift adds MassInv times the face integral of g into my element's nodes.
func (r *refFaces[T]) lift(l *mangll.FaceLink, g, dq []T) {
	m := r.m
	n1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	if l.Kind == mangll.LinkToFineQuad {
		pwi, pwj := quadrantOf(r.pwlo, r.pwhi, l)
		r.tensor(pwi, pwj, g, r.wk)
		for fn, fv := range fidx {
			vn := base + int(fv)
			mi := r.massInv[vn]
			d := dq[vn*NC : vn*NC+NC]
			gn := r.wk[fn*NC:]
			for c := range d {
				d[c] += mi * gn[c]
			}
		}
		return
	}
	for j := 0; j < n1; j++ {
		for i := 0; i < n1; i++ {
			fn := i + n1*j
			vn := base + int(fidx[fn])
			wgt := r.massInv[vn] * r.w[i] * r.w[j]
			d := dq[vn*NC : vn*NC+NC]
			gn := g[fn*NC:]
			for c := range d {
				d[c] += wgt * gn[c]
			}
		}
	}
}

// referenceRHS is RHS over k with the oracle's face kernel: every volume
// term, then every link ascending (per element the driver's order: volume
// first, then its links ascending), then the source at time t. k.buf must
// hold the state with its ghost layer current.
func referenceRHS[T mangll.Float](k *kernels[T], w *mangll.WorkOf[T], src func(float64, [3]float64) [3]float64, t float64, dq []T) {
	m := k.m
	r := newRefFaces[T](m)
	mine, nbr := make([]T, m.Nf*NC), make([]T, m.Nf*NC)
	k.dq = dq
	elems := make([]int32, m.NumLocal)
	for e := range elems {
		elems[e] = int32(e)
	}
	k.volumeTerm(w, elems)
	for li := range m.Links {
		l := &m.Links[li]
		r.mine(l, k.buf, mine)
		geo, mat := k.faceGeo, k.mat
		if l.Kind == mangll.LinkToFineQuad {
			o := int(k.fineOff[li])
			geo, mat = k.fineGeo[o:o+m.Nf], k.fineMat[o:o+m.Nf]
		} else {
			e := int(l.Elem)
			for fn, vn := range m.FaceIdx[l.Face] {
				r.mat[fn] = mat[e*m.Np+int(vn)]
			}
			o := (e*6 + int(l.Face)) * m.Nf
			geo, mat = geo[o:o+m.Nf], r.mat
		}
		if l.Kind == mangll.LinkBoundary {
			freeSurfaceFlux(geo, mat, mine, r.g)
		} else {
			r.theirs(l, k.buf, nbr)
			rusanovFlux(geo, mat, mine, nbr, r.g)
		}
		r.lift(l, r.g, dq)
	}
	if src != nil {
		k.addSource(src, t, 0, len(k.mat))
	}
}

// spikeState fills a state smoothly, then overwrites part of it with the
// values a rewritten kernel most easily gets wrong: exact zeros of both
// signs, subnormals, and sign flips.
func spikeState(q []float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range q {
		q[i] = math.Sin(0.37*float64(i)) * (1 + rng.Float64())
		switch rng.Intn(13) {
		case 0:
			q[i] = 0
		case 1:
			q[i] = math.Copysign(0, -1)
		case 2:
			q[i] = 5e-324
		case 3:
			q[i] = -2.5e-310
		case 4:
			q[i] = -q[i]
		}
	}
}

// sameBits reports the first index at which got and want differ in their
// bits, or -1.
func sameBits[T mangll.Float](got, want []T) int {
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i
		}
	}
	return -1
}

// TestRHSMatchesReference compares RHS's residual with referenceRHS bit
// for bit: on the Fig-9 earth mesh (all four link kinds), on the
// non-conforming six rotated cubes at N = 3 and N = 2 (hanging faces
// across rotated inter-tree faces, the unrolled and the generic tensor
// path), on one and two pool workers, in float64 on the host and in
// float32 through NewDevice.
func TestRHSMatchesReference(t *testing.T) {
	meshes := []string{"earth", "six", "six-N2"}
	if raceflag.Enabled {
		meshes = meshes[1:] // the 4,704-element earth mesh takes minutes under -race
	}
	for _, mesh := range meshes {
		for _, workers := range []int{1, 2} {
			what := fmt.Sprintf("%s w=%d", mesh, workers)
			mpi.RunOpt(1, mpi.RunOptions{Workers: workers}, func(c *mpi.Comm) {
				var s *Solver
				switch mesh {
				case "earth":
					opts := DefaultOptions()
					opts.Degree, opts.MaxLevel, opts.FreqHz = 3, 4, 0.003
					s = NewEarthSolver(c, opts)
					s.Source = RickerSource([3]float64{0, 0, 0.9}, [3]float64{0, 0, 1}, 1.5, 1, 0.05)
				case "six":
					s = hangingRotSolverDeg(c, 3)
				default:
					s = hangingRotSolverDeg(c, 2)
				}
				var kinds [4]int
				for _, l := range s.Mesh.Links {
					kinds[l.Kind]++
				}
				if kinds[mangll.LinkEqual] == 0 || kinds[mangll.LinkToCoarse] == 0 ||
					kinds[mangll.LinkToFineQuad] == 0 || kinds[mangll.LinkBoundary] == 0 {
					t.Errorf("%s: links by kind (boundary, equal, to-coarse, to-fine-quad) %v: want every kind", what, kinds)
				}
				const tt = 0.8
				spikeState(s.Q, 1)
				got, want := make([]float64, len(s.Q)), make([]float64, len(s.Q))
				s.RHS(tt, s.Q, got)
				referenceRHS(&s.k, s.Mesh.SerialWork(), s.Source, tt, want)
				if i := sameBits(got, want); i >= 0 {
					t.Errorf("%s float64: value %d (node %d, comp %d) is %v, reference %v", what, i, i/NC, i%NC, got[i], want[i])
				}

				d := NewDevice(s)
				got32, want32 := make([]float32, len(d.Q)), make([]float32, len(d.Q))
				d.rhs(tt, d.Q, got32) // flushes subnormal states in place, stages the ghosts
				referenceRHS(d.k, d.w, s.Source, tt, want32)
				if i := sameBits(got32, want32); i >= 0 {
					t.Errorf("%s float32: value %d (node %d, comp %d) is %v, reference %v", what, i, i/NC, i%NC, got32[i], want32[i])
				}
			})
		}
	}
}
