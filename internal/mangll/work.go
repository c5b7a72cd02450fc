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
// The face operations come in two forms. One component of a field
// (FaceValues, MyFaceValues, LiftFace) gathers into and lifts from face
// buffers: scalar loops, which is what a one-component kernel wants (a
// third faster than the general form at nc = 1, measured on advect's
// step). All nc components at once, a kernel reads and lifts in place:
// FaceMap gives, per link, the volume nodes both sides of each flux point
// sit at and the lift weights, so a conforming or free-surface link needs
// no buffer at all; only the coarse side of a hanging link is interpolated
// into one (InterpFaceAll) and a hanging quadrant's fluxes lifted from one
// (LiftQuadAll), node-major: value c of face node fn at [fn*nc+c]. Both
// forms sum in the same order, so they agree bitwise.
//
// The kernels are written once for both precisions: WorkOf[T] reads the
// operator set of precision T (ops). A mesh's own Works run in float64
// over the mesh's arrays; NewWorkOf makes a float32 one for the
// single-precision device.
type WorkOf[T Float] struct {
	m  *Mesh
	id int
	op *ops[T]

	// Face-sized scratch (Nf nodes times the widest component count seen,
	// grown on first use so steady-state kernels allocate nothing), fixed
	// roles within one operation: a holds gathered face values, b a
	// tensor-product result, c the tensor workspace.
	sA, sB, sC []T

	// FaceMap's result (Nf entries each).
	mapMine, mapNbr []int32
	mapWgt          []T

	// Mesh.Metric's result and its dx/dxi scratch, in float64 whatever T
	// (the metric is derived from the mesh's coordinates), grown on first
	// use.
	gi       [3][3][]float64
	jac, der []float64
}

// Work is the double-precision context every Kernel hook is handed.
type Work = WorkOf[float64]

// Float is the element type a kernel runs in.
type Float interface{ ~float32 | ~float64 }

// ops is one precision's copy of what the face and derivative kernels
// read: the degree's 1D operators, flat row-major — the differentiation
// matrix, the half-face interpolations and their weighted transposes —
// the quadrature weights, and the inverse mass matrix of the local nodes.
type ops[T Float] struct {
	d, w                 []T
	ilo, ihi, pwlo, pwhi []T
	massInv              []T
}

// Convert returns a copy of a in precision T.
func Convert[T, S Float](a []S) []T {
	out := make([]T, len(a))
	for i, v := range a {
		out[i] = T(v)
	}
	return out
}

// quadrant returns the operators of the link's quadrant, one per face
// axis, out of the lower- and upper-half pair lo, hi.
func quadrant[T Float](lo, hi []T, l *FaceLink) (qi, qj []T) {
	qi, qj = lo, lo
	if l.QuadI == 1 {
		qi = hi
	}
	if l.QuadJ == 1 {
		qj = hi
	}
	return qi, qj
}

func newWork[T Float](m *Mesh, id int, op *ops[T]) *WorkOf[T] {
	w := &WorkOf[T]{m: m, id: id, op: op,
		mapMine: make([]int32, m.Nf), mapNbr: make([]int32, m.Nf), mapWgt: make([]T, m.Nf)}
	w.scratch(1)
	return w
}

// NewWorkOf returns a serial Work context of precision T over the mesh's
// current elements: its operators and inverse mass matrix converted to T,
// once. A Rebuild of the mesh leaves it stale.
func NewWorkOf[T Float](m *Mesh) *WorkOf[T] {
	o := &m.ops
	return newWork(m, 0, &ops[T]{
		d: Convert[T](o.d), w: Convert[T](o.w),
		ilo: Convert[T](o.ilo), ihi: Convert[T](o.ihi),
		pwlo: Convert[T](o.pwlo), pwhi: Convert[T](o.pwhi),
		massInv: Convert[T](o.massInv),
	})
}

// scratch returns the three face buffers sized for k values per node.
func (w *WorkOf[T]) scratch(k int) (a, b, c []T) {
	n := w.m.Nf * k
	if len(w.sA) < n {
		w.sA = make([]T, n)
		w.sB = make([]T, n)
		w.sC = make([]T, n)
	}
	return w.sA[:n], w.sB[:n], w.sC[:n]
}

// ID returns the worker index in [0, workers); frontends use it to index
// their own per-worker scratch arrays.
func (w *WorkOf[T]) ID() int { return w.id }

// SerialWork returns the rank goroutine's own Work context (worker 0),
// for mesh operations performed outside a kernel application — setup,
// diagnostics, tests. Never call it from a kernel hook.
func (m *Mesh) SerialWork() *Work { return m.works[0] }

// Mesh returns the mesh this context operates on.
func (w *WorkOf[T]) Mesh() *Mesh { return w.m }

// FaceValues extracts the neighbour's face values for a link, aligned to my
// face grid, into out (length Nf). field is a full local+ghost array with
// nc values per node; comp selects the component. For LinkToCoarse the
// coarse neighbour's face is interpolated onto my half-size face; for
// LinkToFineQuad the fine neighbour's face covers my quadrant directly
// (callers evaluate at the fine nodes).
func (w *WorkOf[T]) FaceValues(l *FaceLink, nc, comp int, field, out []T) {
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
		qi, qj := quadrant(w.op.ilo, w.op.ihi, l)
		tensor2ApplyBuf(m.Np1, qi, qj, nb, wk, tmp)
		for fn, p := range perm {
			out[fn] = wk[p]
		}
	default:
		panic("mangll: FaceValues on boundary link")
	}
}

// MyFaceValues extracts my own element's face values for a link into out.
// For LinkToFineQuad, my coarse face is interpolated onto the quadrant's
// fine grid (in my frame) so both sides of the flux are collocated.
func (w *WorkOf[T]) MyFaceValues(l *FaceLink, nc, comp int, field, out []T) {
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
	qi, qj := quadrant(w.op.ilo, w.op.ihi, l)
	tensor2ApplyBuf(m.Np1, qi, qj, mine, out, tmp)
}

// FaceMap returns, for link l, where a kernel reads and lifts at each face
// node fn without a gather:
//   - mine[fn], the local volume node of my face node fn;
//   - nbr[fn], what faces it on the other side: the neighbour's
//     local+ghost volume node for LinkEqual and LinkToFineQuad (whose fn is
//     a fine point of the quadrant), the node of InterpFaceAll's grid for
//     LinkToCoarse, nil for LinkBoundary;
//   - wgt[fn], the lift weight MassInv * w_i * w_j of my face node fn: a
//     link other than LinkToFineQuad lifts its flux g as dc[mine[fn]] +=
//     wgt[fn] * g[fn], which is LiftFace's arithmetic (LinkToFineQuad
//     lifts with LiftQuadAll).
//
// The slices are the Work's scratch, valid until its next FaceMap, except
// LinkToCoarse's nbr, which is the mesh's and read-only.
func (w *WorkOf[T]) FaceMap(l *FaceLink) (mine, nbr []int32, wgt []T) {
	m := w.m
	np1 := m.Np1
	base := l.Elem * int32(m.Np)
	fidx := m.FaceIdx[l.Face]
	mine, wgt = w.mapMine, w.mapWgt
	massInv, wq := w.op.massInv, w.op.w
	for j := 0; j < np1; j++ {
		for i := 0; i < np1; i++ {
			fn := i + np1*j
			vn := base + fidx[fn]
			mine[fn] = vn
			wgt[fn] = massInv[vn] * wq[i] * wq[j]
		}
	}
	perm := m.facePerm[l.alignIndex()]
	switch l.Kind {
	case LinkBoundary:
		return mine, nil, wgt
	case LinkToCoarse:
		return mine, perm, wgt
	}
	nb := l.Nbr
	if l.NbrGhost {
		nb += int32(m.NumLocal)
	}
	nb *= int32(m.Np)
	nfidx, nbr := m.FaceIdx[l.NbrFace], w.mapNbr
	for fn, p := range perm {
		nbr[fn] = nb + nfidx[p]
	}
	return mine, nbr, wgt
}

// InterpFaceAll interpolates the coarse face of a hanging link onto the
// fine quadrant the link covers, all nc components of field at once, into
// the node-major out (value c of node fn at [fn*nc+c]): the neighbour's face
// for LinkToCoarse, on its own grid (FaceMap's nbr indexes it), and my
// face for LinkToFineQuad, on my quadrant's fine points.
func (w *WorkOf[T]) InterpFaceAll(l *FaceLink, nc int, field, out []T) {
	m := w.m
	e, f := int(l.Elem), l.Face
	if l.Kind == LinkToCoarse {
		e, f = int(l.Nbr), l.NbrFace
		if l.NbrGhost {
			e += m.NumLocal
		}
	}
	_, _, tmp := w.scratch(nc)
	qi, qj := quadrant(w.op.ilo, w.op.ihi, l)
	tensor2ApplyNC(m.Np1, nc, qi, qj, m.FaceIdx[f], field[e*m.Np*nc:], out, tmp)
}

// InterpFaceToQuad interpolates values given at my full face's nodes onto
// the fine grid of the link's quadrant (LinkToFineQuad only), in my frame.
func (w *WorkOf[T]) InterpFaceToQuad(l *FaceLink, face, out []T) {
	_, _, tmp := w.scratch(1)
	qi, qj := quadrant(w.op.ilo, w.op.ihi, l)
	tensor2ApplyBuf(w.m.Np1, qi, qj, face, out, tmp)
}

// ApplyD differentiates one element's nodal values along reference
// direction a. u and out must not alias.
func (w *WorkOf[T]) ApplyD(a int, u, out []T) {
	w.applyD1(a, u, out)
}

// Gradient differentiates one element's nodal values along all three
// reference directions. None of d0, d1, d2 may alias u.
func (w *WorkOf[T]) Gradient(u, d0, d1, d2 []T) {
	w.applyD1(0, u, d0)
	w.applyD1(1, u, d1)
	w.applyD1(2, u, d2)
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
func (w *WorkOf[T]) LiftFace(l *FaceLink, g, dc []T) {
	m := w.m
	np1 := m.Np1
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	massInv := w.op.massInv
	if l.Kind == LinkToFineQuad {
		_, gi, tmp := w.scratch(1)
		pwi, pwj := quadrant(w.op.pwlo, w.op.pwhi, l)
		tensor2ApplyBuf(np1, pwi, pwj, g, gi, tmp)
		for fn, fv := range fidx {
			vn := base + int(fv)
			dc[vn] += massInv[vn] * gi[fn]
		}
		return
	}
	wq := w.op.w
	for j := 0; j < np1; j++ {
		for i := 0; i < np1; i++ {
			fn := i + np1*j
			vn := base + int(fidx[fn])
			dc[vn] += massInv[vn] * wq[i] * wq[j] * g[fn]
		}
	}
}

// LiftQuadAll is LiftFace of a LinkToFineQuad link for all nc interleaved
// components of dc at once, g being node-major.
func (w *WorkOf[T]) LiftQuadAll(l *FaceLink, nc int, g, dc []T) {
	m := w.m
	base := int(l.Elem) * m.Np
	fidx := m.FaceIdx[l.Face]
	massInv := w.op.massInv
	// Integrated contribution to coarse face nodes: (1/4) * I^T W g per
	// axis, i.e. apply Pw[i][j] = 0.5*W[j]*I[j][i] in each direction.
	_, gi, tmp := w.scratch(nc)
	pwi, pwj := quadrant(w.op.pwlo, w.op.pwhi, l)
	tensor2ApplyNC(m.Np1, nc, pwi, pwj, nil, g, gi, tmp)
	for fn, fv := range fidx {
		vn := base + int(fv)
		mi := massInv[vn]
		d := dc[vn*nc : vn*nc+nc]
		gn := gi[fn*nc:]
		for c := range d {
			d[c] += mi * gn[c]
		}
	}
}
