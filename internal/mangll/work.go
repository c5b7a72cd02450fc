package mangll

// Work is one worker's mesh-operation context: the face-sized and
// element-sized scratch buffers the dG face and derivative kernels need,
// owned by exactly one pool worker (or by the rank goroutine itself on
// the serial path). Mesh state proper — geometry, operators, links — is
// read-only during a kernel application and shared by all Works; only the
// scratch is per-worker, which is what lets N workers run the same
// kernels concurrently without locks.
//
// Kernel hooks must route every mesh operation through the Work they are
// handed, never through SerialWork (Work 0, which pool worker 0 owns
// during an application).
//
// The face operations come in two forms: one component of a field
// (FaceValues, MyFaceValues, LiftFace: scalar loops, which is what a
// one-component kernel wants: a third faster than the general form at
// nc = 1, measured on advect's step) and all nc components at once (the
// *All forms: one gather and one quadrature weight per face node), whose
// face buffers are node-major: value c of face node fn at [fn*nc+c]. Both
// forms sum in the same order, so they agree bitwise.
type Work struct {
	m  *Mesh
	id int

	// Face-sized scratch (Nf nodes times the widest component count seen,
	// grown on first use so steady-state kernels allocate nothing), fixed
	// roles within one operation: a holds gathered face values, b a
	// tensor-product result, c the tensor workspace.
	sA, sB, sC []float64
}

func newWork(m *Mesh, id int) *Work {
	w := &Work{m: m, id: id}
	w.scratch(1)
	return w
}

// scratch returns the three face buffers sized for k values per node.
func (w *Work) scratch(k int) (a, b, c []float64) {
	n := w.m.Nf * k
	if len(w.sA) < n {
		w.sA = make([]float64, n)
		w.sB = make([]float64, n)
		w.sC = make([]float64, n)
	}
	return w.sA[:n], w.sB[:n], w.sC[:n]
}

// ID returns the worker index in [0, workers); frontends use it to index
// their own per-worker scratch arrays.
func (w *Work) ID() int { return w.id }

// SerialWork returns the rank goroutine's own Work context (worker 0),
// for mesh operations performed outside a kernel application — setup,
// diagnostics, tests, device staging. Never call it from a kernel hook.
func (m *Mesh) SerialWork() *Work { return m.works[0] }

// Mesh returns the mesh this context operates on.
func (w *Work) Mesh() *Mesh { return w.m }

// FaceValues extracts the neighbour's face values for a link, aligned to my
// face grid, into out (length Nf). field is a full local+ghost array with
// nc values per node; comp selects the component. For LinkToCoarse the
// coarse neighbour's face is interpolated onto my half-size face; for
// LinkToFineQuad the fine neighbour's face covers my quadrant directly
// (callers evaluate at the fine nodes).
func (w *Work) FaceValues(l *FaceLink, nc, comp int, field []float64, out []float64) {
	m := w.m
	nbr := int(l.Nbr)
	if l.NbrGhost {
		nbr += m.NumLocal
	}
	src := field[nbr*m.Np*nc+comp:]
	fidx := m.FaceIdx[l.NbrFace]
	perm := m.facePerm[l.alignIndex()]
	out = out[:len(perm)]
	switch l.Kind {
	case LinkEqual, LinkToFineQuad:
		for fn, p := range perm {
			out[fn] = src[int(fidx[p])*nc]
		}
	case LinkToCoarse:
		nb, wk, tmp := w.scratch(1)
		for fn, vn := range fidx {
			nb[fn] = src[int(vn)*nc]
		}
		qi, qj := m.quadInterp(l)
		tensor2ApplyBuf(m.Np1, qi, qj, nb, wk, tmp)
		for fn, p := range perm {
			out[fn] = wk[p]
		}
	default:
		panic("mangll: FaceValues on boundary link")
	}
}

// FaceValuesAll is FaceValues for all nc components at once.
func (w *Work) FaceValuesAll(l *FaceLink, nc int, field []float64, out []float64) {
	m := w.m
	nbr := int(l.Nbr)
	if l.NbrGhost {
		nbr += m.NumLocal
	}
	src := field[nbr*m.Np*nc:]
	fidx := m.FaceIdx[l.NbrFace]
	perm := m.facePerm[l.alignIndex()]
	switch l.Kind {
	case LinkEqual, LinkToFineQuad:
		for fn, p := range perm {
			copy(out[fn*nc:(fn+1)*nc], src[int(fidx[p])*nc:])
		}
	case LinkToCoarse:
		nb, wk, tmp := w.scratch(nc)
		gatherFace(fidx, nc, src, nb)
		qi, qj := m.quadInterp(l)
		tensor2ApplyNC(m.Np1, nc, qi, qj, nb, wk, tmp)
		for fn, p := range perm {
			copy(out[fn*nc:(fn+1)*nc], wk[int(p)*nc:])
		}
	default:
		panic("mangll: FaceValues on boundary link")
	}
}

// gatherFace copies the nc values of each face node in fidx from src into
// the node-major face buffer out.
func gatherFace(fidx []int32, nc int, src, out []float64) {
	for fn, vn := range fidx {
		copy(out[fn*nc:(fn+1)*nc], src[int(vn)*nc:])
	}
}

// MyFaceValues extracts my own element's face values for a link into out.
// For LinkToFineQuad, my coarse face is interpolated onto the quadrant's
// fine grid (in my frame) so both sides of the flux are collocated.
func (w *Work) MyFaceValues(l *FaceLink, nc, comp int, field []float64, out []float64) {
	m := w.m
	src := field[int(l.Elem)*m.Np*nc+comp:]
	fidx := m.FaceIdx[l.Face]
	if l.Kind != LinkToFineQuad {
		out = out[:len(fidx)]
		for fn, vn := range fidx {
			out[fn] = src[int(vn)*nc]
		}
		return
	}
	mine, _, tmp := w.scratch(1)
	for fn, vn := range fidx {
		mine[fn] = src[int(vn)*nc]
	}
	qi, qj := m.quadInterp(l)
	tensor2ApplyBuf(m.Np1, qi, qj, mine, out, tmp)
}

// MyFaceValuesAll is MyFaceValues for all nc components at once.
func (w *Work) MyFaceValuesAll(l *FaceLink, nc int, field []float64, out []float64) {
	m := w.m
	src := field[int(l.Elem)*m.Np*nc:]
	if l.Kind != LinkToFineQuad {
		gatherFace(m.FaceIdx[l.Face], nc, src, out)
		return
	}
	mine, _, tmp := w.scratch(nc)
	gatherFace(m.FaceIdx[l.Face], nc, src, mine)
	qi, qj := m.quadInterp(l)
	tensor2ApplyNC(m.Np1, nc, qi, qj, mine, out, tmp)
}

// InterpFaceToQuad interpolates values given at my full face's nodes onto
// the fine grid of the link's quadrant (LinkToFineQuad only), in my frame.
func (w *Work) InterpFaceToQuad(l *FaceLink, face, out []float64) {
	_, _, tmp := w.scratch(1)
	qi, qj := w.m.quadInterp(l)
	tensor2ApplyBuf(w.m.Np1, qi, qj, face, out, tmp)
}

// ApplyD differentiates one element's nodal values along reference
// direction a. u and out must not alias.
func (w *Work) ApplyD(a int, u, out []float64) {
	w.m.applyD1(a, u, out)
}

// Gradient differentiates one element's nodal values along all three
// reference directions. None of d0, d1, d2 may alias u.
func (w *Work) Gradient(u, d0, d1, d2 []float64) {
	w.m.applyD1(0, u, d0)
	w.m.applyD1(1, u, d1)
	w.m.applyD1(2, u, d2)
}

// LiftFace accumulates the surface contribution of a link into the volume
// residual: dc[volume node] += MassInv * integral(g * phi) over the face
// piece the link covers. g holds the flux difference at the link's flux
// points: my face nodes for LinkEqual/LinkToCoarse/LinkBoundary, or the
// quadrant's fine points (my frame) for LinkToFineQuad, where the integral
// is assembled onto the coarse face basis through the weighted
// interpolation transpose.
//
// The lift writes only into the link's own element — the property the
// kernel driver's batching leans on: batches own disjoint element ranges,
// so concurrent lifts never touch the same node.
func (w *Work) LiftFace(l *FaceLink, g, dc []float64) {
	m := w.m
	np1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	if l.Kind == LinkToFineQuad {
		_, gi, tmp := w.scratch(1)
		pwi, pwj := m.quadWeighted(l)
		tensor2ApplyBuf(np1, pwi, pwj, g, gi, tmp)
		for fn, fv := range fidx {
			vn := base + int(fv)
			dc[vn] += m.MassInv[vn] * gi[fn]
		}
		return
	}
	wq := m.L.W
	for j := 0; j < np1; j++ {
		for i := 0; i < np1; i++ {
			fn := i + np1*j
			vn := base + int(fidx[fn])
			dc[vn] += m.MassInv[vn] * wq[i] * wq[j] * g[fn]
		}
	}
}

// LiftFaceAll is LiftFace for all nc interleaved components of dc at once,
// with one quadrature weight per face node.
func (w *Work) LiftFaceAll(l *FaceLink, nc int, g, dc []float64) {
	m := w.m
	np1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	if l.Kind == LinkToFineQuad {
		// Integrated contribution to coarse face nodes: (1/4) * I^T W g per
		// axis, i.e. apply Pw[i][j] = 0.5*W[j]*I[j][i] in each direction.
		_, gi, tmp := w.scratch(nc)
		pwi, pwj := m.quadWeighted(l)
		tensor2ApplyNC(np1, nc, pwi, pwj, g, gi, tmp)
		for fn, fv := range fidx {
			vn := base + int(fv)
			mi := m.MassInv[vn]
			d := dc[vn*nc : vn*nc+nc]
			gn := gi[fn*nc:]
			for c := range d {
				d[c] += mi * gn[c]
			}
		}
		return
	}
	wq := m.L.W
	for j := 0; j < np1; j++ {
		for i := 0; i < np1; i++ {
			fn := i + np1*j
			vn := base + int(fidx[fn])
			wgt := m.MassInv[vn] * wq[i] * wq[j]
			d := dc[vn*nc : vn*nc+nc]
			gn := g[fn*nc:]
			for c := range d {
				d[c] += wgt * gn[c]
			}
		}
	}
}
