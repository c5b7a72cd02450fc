package seismic

import (
	"math"
	"time"

	"repro/internal/mangll"
	"repro/internal/metrics"
)

// Device is the single-precision compute backend standing in for the
// paper's GPU version of dGea (§IV.B): the mesh is generated in parallel on
// the "host" (the forest algorithms), then the solution state, metric
// terms, material model, and face geometry are transferred to
// single-precision device arrays (the timed "transf" stage of Figure 10);
// wave propagation then runs entirely in float32 with fused kernels, and
// each time step exchanges shared face data through the host, mirroring
// "transfer of shared data to CPUs and communication via MPI".
type Device struct {
	S *Solver

	Q []float32

	jacInv  []float32
	massInv []float32
	gi      [3][3][]float32
	rho     []float32
	lam     []float32
	mu      []float32

	// Per-link precomputed flux-point geometry and material.
	links []devLink

	d32          [][]float32
	ilo32, ihi32 [][]float32
	pwlo32       [][]float32
	pwhi32       [][]float32
	w32          []float32

	res, du, buf64conv []float32
	hostBuf            []float64

	// TransferSec is the host->device transfer time (Figure 10 "transf").
	TransferSec float64
}

type devLink struct {
	l        *mangll.FaceLink
	boundary bool
	n        [][3]float32 // unit normals at flux points
	sa       []float32    // area magnitudes
	irho     []float32    // 1/rho at flux points
	alpha    []float32    // Rusanov speed
	lam, mu  []float32
}

func to32(m [][]float64) [][]float32 {
	out := make([][]float32, len(m))
	for i, r := range m {
		out[i] = make([]float32, len(r))
		for j, v := range r {
			out[i][j] = float32(v)
		}
	}
	return out
}

// NewDevice transfers the solver's current state and mesh data to the
// device, timing the transfer.
func NewDevice(s *Solver) *Device {
	t0 := time.Now()
	m := s.Mesh
	d := &Device{S: s}
	n := m.NumLocal * m.Np
	d.Q = make([]float32, n*NC)
	for i, v := range s.Q {
		d.Q[i] = float32(v)
	}
	d.jacInv = make([]float32, n)
	d.massInv = make([]float32, n)
	d.rho = make([]float32, n)
	d.lam = make([]float32, n)
	d.mu = make([]float32, n)
	for i := 0; i < n; i++ {
		d.jacInv[i] = float32(m.InvJac[i])
		d.massInv[i] = float32(m.MassInv[i])
		d.rho[i] = float32(s.mat[i].Rho)
		d.lam[i] = float32(s.mat[i].Lambda)
		d.mu[i] = float32(s.mat[i].Mu)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			d.gi[a][b] = make([]float32, n)
			for i := 0; i < n; i++ {
				d.gi[a][b][i] = float32(m.Gi[a][b][i])
			}
		}
	}
	d.d32 = to32(m.L.D)
	d.ilo32 = to32(m.Ilo)
	d.ihi32 = to32(m.Ihi)
	d.pwlo32 = to32(m.PwLo)
	d.pwhi32 = to32(m.PwHi)
	d.w32 = make([]float32, len(m.L.W))
	for i, w := range m.L.W {
		d.w32[i] = float32(w)
	}

	// Precompute per-link surface geometry (normals, areas, materials).
	xs := make([][3]float64, m.Nf)
	area := make([][3]float64, m.Nf)
	d.links = make([]devLink, len(m.Links))
	w0 := m.SerialWork()
	for li := range m.Links {
		l := &m.Links[li]
		dl := devLink{l: l, boundary: l.Kind == mangll.LinkBoundary}
		s.fluxGeometry(w0, l, xs, area)
		nf := m.Nf
		dl.n = make([][3]float32, nf)
		dl.sa = make([]float32, nf)
		dl.irho = make([]float32, nf)
		dl.alpha = make([]float32, nf)
		dl.lam = make([]float32, nf)
		dl.mu = make([]float32, nf)
		for fn := 0; fn < nf; fn++ {
			av := area[fn]
			sa := math.Sqrt(av[0]*av[0] + av[1]*av[1] + av[2]*av[2])
			dl.sa[fn] = float32(sa)
			if sa > 0 {
				dl.n[fn] = [3]float32{float32(av[0] / sa), float32(av[1] / sa), float32(av[2] / sa)}
			}
			mt := s.MatFn(xs[fn])
			dl.irho[fn] = float32(1 / mt.Rho)
			dl.alpha[fn] = float32(mt.Vp())
			dl.lam[fn] = float32(mt.Lambda)
			dl.mu[fn] = float32(mt.Mu)
		}
		d.links[li] = dl
	}

	d.res = make([]float32, n*NC)
	d.du = make([]float32, n*NC)
	d.hostBuf = make([]float64, (m.NumLocal+m.NumGhost)*m.Np*NC)
	d.buf64conv = make([]float32, (m.NumLocal+m.NumGhost)*m.Np*NC)
	d.TransferSec = time.Since(t0).Seconds()
	return d
}

// exchange stages the local device fields through the host, performs the
// ghost exchange, and downloads the ghost layer back to the device.
func (d *Device) exchange(q []float32) {
	m := d.S.Mesh
	nl := m.NumLocal * m.Np * NC
	for i := 0; i < nl; i++ {
		d.hostBuf[i] = float64(q[i])
	}
	m.ExchangeGhost(NC, d.hostBuf)
	for i := nl; i < len(d.hostBuf); i++ {
		d.buf64conv[i] = float32(d.hostBuf[i])
	}
	copy(d.buf64conv[:nl], q[:nl])
}

// applyD32 differentiates one element's float32 nodal values.
func (d *Device) applyD32(a int, u, out []float32) {
	np1 := d.S.Mesh.Np1
	dm := d.d32
	switch a {
	case 0:
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				row := (j + np1*k) * np1
				for i := 0; i < np1; i++ {
					var s float32
					di := dm[i]
					for q := 0; q < np1; q++ {
						s += di[q] * u[row+q]
					}
					out[row+i] = s
				}
			}
		}
	case 1:
		nf := np1 * np1
		for k := 0; k < np1; k++ {
			for i := 0; i < np1; i++ {
				col := i + nf*k
				for j := 0; j < np1; j++ {
					var s float32
					dj := dm[j]
					for q := 0; q < np1; q++ {
						s += dj[q] * u[col+q*np1]
					}
					out[col+j*np1] = s
				}
			}
		}
	default:
		nf := np1 * np1
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				col := i + np1*j
				for k := 0; k < np1; k++ {
					var s float32
					dk := dm[k]
					for q := 0; q < np1; q++ {
						s += dk[q] * u[col+q*nf]
					}
					out[col+k*nf] = s
				}
			}
		}
	}
}

func tensor2Apply32(n int, a, b [][]float32, u, out []float32) {
	tmp := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float32
			ai := a[i]
			for p := 0; p < n; p++ {
				s += ai[p] * u[p+n*j]
			}
			tmp[i+n*j] = s
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float32
			bj := b[j]
			for q := 0; q < n; q++ {
				s += bj[q] * tmp[i+n*q]
			}
			out[i+n*j] = s
		}
	}
}

// faceVals32 extracts a component's face values for a link from the
// staged local+ghost array, aligned to my face grid (float32 mirror of
// Mesh.FaceValues / MyFaceValues).
func (d *Device) faceVals32(l *mangll.FaceLink, mineSide bool, comp int, q []float32, out []float32) {
	m := d.S.Mesh
	np1 := m.Np1
	var elem int
	var face int8
	if mineSide {
		elem, face = int(l.Elem), l.Face
	} else {
		elem, face = int(l.Nbr), l.NbrFace
		if l.NbrGhost {
			elem += m.NumLocal
		}
	}
	fidx := m.FaceIdx[face]
	vals := make([]float32, m.Nf)
	base := elem * m.Np * NC
	for fn := 0; fn < m.Nf; fn++ {
		vals[fn] = q[base+int(fidx[fn])*NC+comp]
	}
	switch {
	case mineSide && l.Kind == mangll.LinkToFineQuad:
		qi, qj := d.ilo32, d.ilo32
		if l.QuadI == 1 {
			qi = d.ihi32
		}
		if l.QuadJ == 1 {
			qj = d.ihi32
		}
		tensor2Apply32(np1, qi, qj, vals, out)
	case mineSide:
		copy(out, vals)
	case l.Kind == mangll.LinkToCoarse:
		qi, qj := d.ilo32, d.ilo32
		if l.QuadI == 1 {
			qi = d.ihi32
		}
		if l.QuadJ == 1 {
			qj = d.ihi32
		}
		w := make([]float32, m.Nf)
		tensor2Apply32(np1, qi, qj, vals, w)
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				i2, j2 := l.MapIndex(m.L.N, i, j)
				out[i+np1*j] = w[i2+np1*j2]
			}
		}
	default: // equal or fine-quad neighbour: direct alignment
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				i2, j2 := l.MapIndex(m.L.N, i, j)
				out[i+np1*j] = vals[i2+np1*j2]
			}
		}
	}
}

func (d *Device) lift32(l *mangll.FaceLink, comp int, g []float32, dq []float32) {
	m := d.S.Mesh
	np1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	switch l.Kind {
	case mangll.LinkEqual, mangll.LinkToCoarse, mangll.LinkBoundary:
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				fn := i + np1*j
				vn := base + int(fidx[fn])
				dq[vn*NC+comp] += d.massInv[vn] * d.w32[i] * d.w32[j] * g[fn]
			}
		}
	case mangll.LinkToFineQuad:
		pwi, pwj := d.pwlo32, d.pwlo32
		if l.QuadI == 1 {
			pwi = d.pwhi32
		}
		if l.QuadJ == 1 {
			pwj = d.pwhi32
		}
		gi := make([]float32, m.Nf)
		tensor2Apply32(np1, pwi, pwj, g, gi)
		for fn := 0; fn < m.Nf; fn++ {
			vn := base + int(fidx[fn])
			dq[vn*NC+comp] += d.massInv[vn] * gi[fn]
		}
	}
}

func stress32(lam, mu float32, e []float32) (sxx, syy, szz, syz, sxz, sxy float32) {
	tr := e[0] + e[1] + e[2]
	sxx = 2*mu*e[0] + lam*tr
	syy = 2*mu*e[1] + lam*tr
	szz = 2*mu*e[2] + lam*tr
	syz = 2 * mu * e[3]
	sxz = 2 * mu * e[4]
	sxy = 2 * mu * e[5]
	return
}

func fluxNormal32(irho, lam, mu float32, q []float32, n [3]float32, out []float32) {
	sxx, syy, szz, syz, sxz, sxy := stress32(lam, mu, q[3:])
	out[0] = -irho * (sxx*n[0] + sxy*n[1] + sxz*n[2])
	out[1] = -irho * (sxy*n[0] + syy*n[1] + syz*n[2])
	out[2] = -irho * (sxz*n[0] + syz*n[1] + szz*n[2])
	vx, vy, vz := q[0], q[1], q[2]
	out[3] = -vx * n[0]
	out[4] = -vy * n[1]
	out[5] = -vz * n[2]
	out[6] = -(vy*n[2] + vz*n[1]) / 2
	out[7] = -(vx*n[2] + vz*n[0]) / 2
	out[8] = -(vx*n[1] + vy*n[0]) / 2
}

// rhs32 is the fused single-precision RHS kernel.
func (d *Device) rhs32(q, dq []float32) {
	s := d.S
	m := s.Mesh
	np := m.Np
	d.exchange(q)
	buf := d.buf64conv

	sig := make([][6]float32, np)
	der := make([]float32, np)
	field := make([]float32, np)
	grads := make([][3]float32, np*NC)
	for e := 0; e < m.NumLocal; e++ {
		base := e * np
		for nn := 0; nn < np; nn++ {
			i := (base + nn) * NC
			sxx, syy, szz, syz, sxz, sxy := stress32(d.lam[base+nn], d.mu[base+nn], q[i+3:i+9])
			sig[nn] = [6]float32{sxx, syy, szz, syz, sxz, sxy}
		}
		for c := 0; c < NC; c++ {
			for nn := 0; nn < np; nn++ {
				if c < 3 {
					field[nn] = q[(base+nn)*NC+c]
				} else {
					field[nn] = sig[nn][c-3]
				}
			}
			for nn := 0; nn < np; nn++ {
				grads[nn*NC+c] = [3]float32{}
			}
			for r := 0; r < 3; r++ {
				d.applyD32(r, field, der)
				for nn := 0; nn < np; nn++ {
					gj := d.jacInv[base+nn]
					g := &grads[nn*NC+c]
					g[0] += gj * d.gi[r][0][base+nn] * der[nn]
					g[1] += gj * d.gi[r][1][base+nn] * der[nn]
					g[2] += gj * d.gi[r][2][base+nn] * der[nn]
				}
			}
		}
		for nn := 0; nn < np; nn++ {
			i := (base + nn) * NC
			ir := 1 / d.rho[base+nn]
			gs := grads[nn*NC:]
			dq[i+0] += ir * (gs[3][0] + gs[8][1] + gs[7][2])
			dq[i+1] += ir * (gs[8][0] + gs[4][1] + gs[6][2])
			dq[i+2] += ir * (gs[7][0] + gs[6][1] + gs[5][2])
			dq[i+3] += gs[0][0]
			dq[i+4] += gs[1][1]
			dq[i+5] += gs[2][2]
			dq[i+6] += (gs[1][2] + gs[2][1]) / 2
			dq[i+7] += (gs[0][2] + gs[2][0]) / 2
			dq[i+8] += (gs[0][1] + gs[1][0]) / 2
		}
	}

	nf := m.Nf
	mine := make([]float32, nf*NC)
	theirs := make([]float32, nf*NC)
	comp := make([]float32, nf)
	fm := make([]float32, NC)
	fp := make([]float32, NC)
	g := make([]float32, nf)
	for li := range d.links {
		dl := &d.links[li]
		l := dl.l
		if dl.boundary {
			for c := 0; c < NC; c++ {
				d.faceVals32(l, true, c, buf, comp)
				copy(mine[c*nf:(c+1)*nf], comp)
			}
			for c := 0; c < NC; c++ {
				for fn := 0; fn < nf; fn++ {
					g[fn] = 0
				}
				if c < 3 {
					for fn := 0; fn < nf; fn++ {
						if dl.sa[fn] == 0 {
							continue
						}
						var qm [NC]float32
						for cc := 3; cc < NC; cc++ {
							qm[cc] = mine[cc*nf+fn]
						}
						sxx, syy, szz, syz, sxz, sxy := stress32(dl.lam[fn], dl.mu[fn], qm[3:])
						n := dl.n[fn]
						tau := [3]float32{
							sxx*n[0] + sxy*n[1] + sxz*n[2],
							sxy*n[0] + syy*n[1] + syz*n[2],
							sxz*n[0] + syz*n[1] + szz*n[2],
						}
						g[fn] = -dl.sa[fn] * dl.irho[fn] * tau[c]
					}
				}
				d.lift32(l, c, g, dq)
			}
			continue
		}
		for c := 0; c < NC; c++ {
			d.faceVals32(l, true, c, buf, comp)
			copy(mine[c*nf:(c+1)*nf], comp)
			d.faceVals32(l, false, c, buf, comp)
			copy(theirs[c*nf:(c+1)*nf], comp)
		}
		gAll := make([][]float32, NC)
		for c := range gAll {
			gAll[c] = make([]float32, nf)
		}
		for fn := 0; fn < nf; fn++ {
			if dl.sa[fn] == 0 {
				continue
			}
			var qm, qp [NC]float32
			for c := 0; c < NC; c++ {
				qm[c] = mine[c*nf+fn]
				qp[c] = theirs[c*nf+fn]
			}
			fluxNormal32(dl.irho[fn], dl.lam[fn], dl.mu[fn], qm[:], dl.n[fn], fm)
			fluxNormal32(dl.irho[fn], dl.lam[fn], dl.mu[fn], qp[:], dl.n[fn], fp)
			for c := 0; c < NC; c++ {
				gAll[c][fn] = dl.sa[fn] * (0.5*(fm[c]-fp[c]) + 0.5*dl.alpha[fn]*(qp[c]-qm[c]))
			}
		}
		for c := 0; c < NC; c++ {
			d.lift32(l, c, gAll[c], dq)
		}
	}
}

// Step advances one LSRK4(5) step entirely on the device.
func (d *Device) Step(dt float64) {
	defer d.S.Met.Histogram("waveprop_device", metrics.UnitDuration).Since(time.Now())
	a32 := [5]float32{}
	b32 := [5]float32{}
	for i := 0; i < 5; i++ {
		a32[i] = float32(mangll.LSRKA(i))
		b32[i] = float32(mangll.LSRKB(i))
	}
	for i := range d.res {
		d.res[i] = 0
	}
	for st := 0; st < 5; st++ {
		for i := range d.du {
			d.du[i] = 0
		}
		d.rhs32(d.Q, d.du)
		dtf := float32(dt)
		for i := range d.Q {
			d.res[i] = a32[st]*d.res[i] + dtf*d.du[i]
			d.Q[i] += b32[st] * d.res[i]
		}
	}
	d.S.Time += dt
}

// CopyBack downloads the device solution into the host solver.
func (d *Device) CopyBack() {
	for i := range d.S.Q {
		d.S.Q[i] = float64(d.Q[i])
	}
}
