package mangll

import (
	"fmt"
	"slices"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/pool"
)

// LinkKind classifies a face connection of a local element.
type LinkKind int8

const (
	// LinkBoundary marks a face on the domain boundary.
	LinkBoundary LinkKind = iota
	// LinkEqual connects two same-size faces.
	LinkEqual
	// LinkToCoarse connects a fine face to the quadrant of a neighbour one
	// level coarser (this element's face is one of four half-size faces).
	LinkToCoarse
	// LinkToFineQuad connects one quadrant of a coarse face to a half-size
	// neighbour; a hanging face produces four such links.
	LinkToFineQuad
)

// FaceLink describes one face-flux connection of a local element. The
// alignment fields encode the relative rotation of the two faces, which for
// inter-tree connections follows the connectivity's integer transform
// ("the rotation of coordinate systems between octrees needs to be taken
// into account when aligning unknowns across inter-octree faces", §II.E).
type FaceLink struct {
	Elem int32 // local element index
	Face int8
	Kind LinkKind

	Nbr      int32 // neighbour element index (local, or ghost if NbrGhost)
	NbrGhost bool
	NbrFace  int8

	// Alignment from my face grid (i,j) to the neighbour's face grid:
	// (a,b) = Swap ? (j,i) : (i,j); i' = RevI ? N-a : a; j' = RevJ ? N-b : b.
	Swap, RevI, RevJ bool

	// LinkToCoarse: my quadrant within the neighbour's face, in the
	// neighbour's face frame. LinkToFineQuad: the quadrant of my face this
	// link covers, in my face frame.
	QuadI, QuadJ int8
}

// alignIndex numbers the link's alignment for Mesh.facePerm.
func (l *FaceLink) alignIndex() int {
	a := 0
	if l.Swap {
		a = 1
	}
	if l.RevI {
		a |= 2
	}
	if l.RevJ {
		a |= 4
	}
	return a
}

// MapIndex maps my face node (i,j) to the neighbour's face grid.
func (l *FaceLink) MapIndex(n, i, j int) (int, int) {
	a, b := i, j
	if l.Swap {
		a, b = j, i
	}
	if l.RevI {
		a = n - a
	}
	if l.RevJ {
		b = n - b
	}
	return a, b
}

// Mesh is the dG view of a distributed forest: element node coordinates,
// the volume Jacobian and inverse mass matrix the kernels read, face
// connections (including 2:1 hanging faces and inter-tree rotations), and
// the ghost-exchange machinery for fields. The rest of the metric, J dxi/dx,
// is not kept: Metric derives it from X for whoever reads it.
type Mesh struct {
	F *core.Forest
	G *core.GhostLayer
	L *LGL

	Np1 int // nodes per direction, N+1
	Nf  int // nodes per face, (N+1)^2
	Np  int // nodes per element, (N+1)^3

	NumLocal int
	NumGhost int

	// X[a] holds coordinate a of every local element node: index e*Np+n.
	X [3][]float64
	// Jac[n] is the volume Jacobian determinant at each local node.
	Jac []float64
	// MassInv[n] = 1 / (w_i w_j w_k J): inverse diagonal mass matrix.
	MassInv []float64

	// Leaves is the mesh's own copy of the local leaves it was last built
	// for, element e being Leaves[e]. It outlives the forest's array, which
	// Coarsen compacts in place: Rebuild matches it against the new leaves
	// to find the elements whose geometry it can keep, and an adapt cycle
	// reads it as the old side of TransferFields.
	Leaves []octant.Octant
	// Src maps each element to its index before the last Rebuild, or -1
	// when it had none (every element of a mesh NewMesh just built): what a
	// frontend hands Carry to move its own per-element tables along.
	Src   []int32
	fresh []int32 // the elements with Src < 0

	// FaceIdx[f][fn] is the volume node index of face node fn of face f.
	FaceIdx [6][]int32

	Links []FaceLink

	// InteriorElems/BoundaryElems partition the local element indices: a
	// boundary element has at least one link whose flux reads ghost
	// (remote) data, i.e. Kind != LinkBoundary && NbrGhost. The ratio
	// |Interior|/|Boundary| bounds how much compute is available to hide
	// the exchange behind (volume kernels of all elements plus every face
	// kernel of the interior ones).
	InteriorElems, BoundaryElems []int32

	// intLinks/bndLinks partition the indices of Links by the class of the
	// link's element, each ascending: every link of an interior element
	// depends only on local data and runs while the ghost exchange is in
	// flight; every link of a boundary element — ghost-reading or not —
	// waits for Finish, so that the element's links run in ascending order
	// whatever the partition.
	intLinks, bndLinks []int32

	// facePerm[a][fn] is the neighbour's face node facing my face node fn
	// under alignment a (FaceLink.alignIndex): MapIndex tabulated once.
	facePerm [8][]int32

	// ops is the float64 operator set the mesh's own Works read, over the
	// mesh's arrays; plo and phi are the exact L2 projections from the two
	// half intervals back to the parent, which the coarsening transfer
	// applies. All flat row-major, so each matrix row is one contiguous
	// cache run.
	ops      ops[float64]
	plo, phi []float64

	// ghost exchange: aligned per-peer element lists (parallel slices in
	// ascending peer-rank order), local element indices to send and ghost
	// element indices to receive, both in curve order.
	sendPeers []int
	sendLists [][]int32
	recvPeers []int
	recvLists [][]int32

	// Split-phase exchange state. Send staging buffers are double
	// buffered by exchange parity: with at most one exchange outstanding
	// per mesh (enforced by exchActive) and symmetric neighbor relations,
	// a rank can only reach its (k+2)-th StartGhostExchange after every
	// peer finished unpacking the parity-k buffers (its Finish of
	// exchange k+1 received messages the peer sent in Start k+1, which
	// follows the peer's Finish k), so reusing a buffer two exchanges
	// later never races a receiver still reading it even though payloads
	// transfer by reference.
	sendBufs   [2][][]float64
	sendBoxed  [2][]any // pre-boxed buffer payloads (boxing allocates)
	sendParity int
	recvReqs   []*mpi.Request
	exch       GhostExchange
	exchActive bool

	// MinLen is the smallest physical element edge length over all ranks
	// (used for CFL time-step selection).
	MinLen float64

	// Kernel driver state (see kernel.go): one Work context per pool
	// worker (works[0] is the serial context, SerialWork), the identity
	// element list the batches slice, and the fixed deterministic batch
	// partition, which a rank without a pool walks inline. Mesh's fields
	// spell WorkOf[float64] out: the Work alias cannot name it inside a
	// type WorkOf itself refers to.
	works    []*WorkOf[float64]
	pool     *pool.Pool
	allElems []int32
	batches  []kernelBatch
	curK     Kernel // kernel of the Apply in progress
	spanA    []string
	spanB    []string
	phaseA   func(worker, batch int)
	phaseB   func(worker, batch int)

	// ForRange's sweep in flight and its prebuilt pool body.
	rangeN    int
	rangeFn   func(w *WorkOf[float64], lo, hi int)
	rangeBody func(worker, batch int)

	// element-sized scratch of the transfer (interpolate/project) kernels.
	tUc, tOc, tAcc, tT1, tT2 []float64
}

// NewMesh builds the dG mesh of degree n over the forest's current leaves.
// The forest must be 2:1 balanced (BalanceFull); ghost must be current. It
// is the Rebuild of a mesh with no elements yet, after the set-up that
// depends on the degree alone.
func NewMesh(f *core.Forest, g *core.GhostLayer, l *LGL) *Mesh {
	np1 := l.N + 1
	m := &Mesh{
		F: f, L: l,
		Np1: np1, Nf: np1 * np1, Np: np1 * np1 * np1,
		pool: f.Comm.Pool(),
	}
	m.works = make([]*Work, f.Comm.Workers())
	for i := range m.works {
		m.works[i] = newWork(m, i, &m.ops)
	}
	m.rangeBody = func(worker, batch int) {
		n, nb := m.rangeN, min(m.rangeN, rangeChunks*len(m.works))
		m.rangeFn(m.works[worker], batch*n/nb, (batch+1)*n/nb)
	}
	m.buildFaceIdx()
	ilo, ihi := l.HalfInterp()
	plo, phi := halfProjections(l, ilo, ihi)
	m.plo, m.phi = flatten(plo), flatten(phi)
	m.ops = ops[float64]{
		d: l.DF, w: l.W,
		ilo: flatten(ilo), ihi: flatten(ihi),
		pwlo: flatten(weightedTranspose(l, ilo)), pwhi: flatten(weightedTranspose(l, ihi)),
	}
	m.buildKernelDriver()
	m.Rebuild(g)
	return m
}

// Rebuild brings the mesh up to date, in place, with the forest's current
// leaves and their ghost layer g after the forest was adapted or
// repartitioned (same preconditions as NewMesh). An element survives when
// the same octant was an element of this mesh — on this rank — before: its
// node coordinates, Jacobian and mass are moved to its new index and kept,
// bitwise; everything else (the geometry of the other elements, MinLen,
// links, exchange lists, batches) is derived again, and Src records who
// moved where. Storage is reused and grows only when the rank's element
// count outgrows it. Collective.
func (m *Mesh) Rebuild(g *core.GhostLayer) {
	if m.exchActive {
		panic("mangll: Rebuild with a ghost exchange in flight")
	}
	m.G = g
	m.NumLocal, m.NumGhost = len(m.F.Local), len(g.Octants)
	m.matchLeaves()
	m.buildGeometry()
	m.ops.massInv = m.MassInv
	m.Leaves = append(m.Leaves[:0], m.F.Local...)
	m.buildLinks()
	m.buildGhostExchange()
	m.buildBatches()
}

// matchLeaves fills Src and fresh by one merge pass over the old and the
// new leaves, both in curve order.
func (m *Mesh) matchLeaves() {
	old := m.Leaves
	m.Src, m.fresh = m.Src[:0], m.fresh[:0]
	i := 0
	for e, o := range m.F.Local {
		for i < len(old) && octant.Compare(old[i], o) < 0 {
			i++
		}
		if i < len(old) && old[i] == o {
			m.Src = append(m.Src, int32(i))
			i++
			continue
		}
		m.Src = append(m.Src, -1)
		m.fresh = append(m.fresh, int32(e))
	}
}

// Carry rearranges a per-element table — stride values per element — for
// the element order a Rebuild produced: row e of the result is row src[e]
// of a where src[e] >= 0, and for the caller to fill where it is not. The
// kept rows must appear in a in the order they keep (src ascends over
// them), which lets the table be rearranged in place by two passes that
// never overwrite a row not yet moved: kept rows are packed to the front,
// walking up, then spread to their new indices, walking down; in between
// the table is resized (Resize).
func Carry[T any](a []T, src []int32, stride int) []T {
	kept := 0
	for _, from := range src {
		if from < 0 {
			continue
		}
		if int(from) != kept {
			copy(a[kept*stride:(kept+1)*stride], a[int(from)*stride:])
		}
		kept++
	}
	a = Resize(a[:kept*stride], len(src)*stride)
	for e := len(src) - 1; e >= 0; e-- {
		if src[e] < 0 {
			continue
		}
		kept--
		if kept != e {
			copy(a[e*stride:(e+1)*stride], a[kept*stride:])
		}
	}
	return a
}

// Resize returns a cut or grown to n values, the first min(len(a), n) of
// them a's. It reallocates only when a's capacity falls short: to exactly n
// the first time, so that a mesh that never changes holds nothing spare,
// and with an eighth to spare when a table outgrows what it had, so that a
// mesh that grows a little at every adapt does not reallocate at each.
// Values past len(a) are whatever the array held.
func Resize[T any](a []T, n int) []T {
	if cap(a) >= n {
		return a[:n]
	}
	spare := 0
	if cap(a) > 0 {
		spare = n / 8
	}
	b := make([]T, n, n+spare)
	copy(b, a)
	return b
}

// buildFaceIdx precomputes volume node indices of each face's node grid,
// ordered by the face's ascending tangent axes, and the eight face-to-face
// alignment permutations.
func (m *Mesh) buildFaceIdx() {
	np1 := m.Np1
	for a := range m.facePerm {
		l := FaceLink{Swap: a&1 != 0, RevI: a&2 != 0, RevJ: a&4 != 0}
		perm := make([]int32, m.Nf)
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				i2, j2 := l.MapIndex(m.L.N, i, j)
				perm[i+np1*j] = int32(i2 + np1*j2)
			}
		}
		m.facePerm[a] = perm
	}
	stride := [3]int{1, np1, np1 * np1}
	for f := 0; f < 6; f++ {
		axis := octant.FaceAxis(f)
		u, v := faceTangentAxes(f)
		fixed := 0
		if f&1 == 1 {
			fixed = np1 - 1
		}
		idx := make([]int32, m.Nf)
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				n := fixed*stride[axis] + i*stride[u] + j*stride[v]
				idx[i+np1*j] = int32(n)
			}
		}
		m.FaceIdx[f] = idx
	}
}

// faceTangentAxes returns the two transverse axes of face f ascending.
func faceTangentAxes(f int) (u, v int) {
	switch octant.FaceAxis(f) {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// buildGeometry moves the node coordinates, Jacobians and masses of the
// surviving elements to their new indices (Carry) and evaluates those of
// the fresh ones via the connectivity's geometry. Elements are independent,
// so the loops fan out over the rank's pool when there is one (ForRange).
// MinLen is taken over every element, kept or fresh, from its coordinates:
// the only reduction is a minimum, which no order can change.
func (m *Mesh) buildGeometry() {
	np := m.Np
	for a := 0; a < 3; a++ {
		m.X[a] = Carry(m.X[a], m.Src, np)
	}
	m.Jac = Carry(m.Jac, m.Src, np)
	m.MassInv = Carry(m.MassInv, m.Src, np)

	geom := m.F.Conn.Geometry()
	if geom == nil {
		panic("mangll: connectivity has no geometry")
	}
	m.ForRange(len(m.fresh), func(w *Work, lo, hi int) {
		for _, e := range m.fresh[lo:hi] {
			m.elemGeometry(w, int(e), geom)
		}
	})

	minLen := make([]float64, len(m.works))
	for w := range minLen {
		minLen[w] = 1e308
	}
	m.ForRange(m.NumLocal, func(w *Work, lo, hi int) {
		for e := lo; e < hi; e++ {
			minLen[w.id] = min(minLen[w.id], m.edgeLen(e))
		}
	})
	m.MinLen = -mpi.AllreduceMax(m.F.Comm, -slices.Min(minLen))
}

// edgeLen estimates the size of element e: the distance between its two
// corner nodes along the x-axis line (approximate physical edge length).
func (m *Mesh) edgeLen(e int) float64 {
	base := e * m.Np
	last := base + m.Np1 - 1
	return norm3([3]float64{
		m.X[0][last] - m.X[0][base],
		m.X[1][last] - m.X[1][base],
		m.X[2][last] - m.X[2][base],
	})
}

// FaceArea writes component b of the outward area vector (J grad xi
// scaled, unnormalized) at the Nf face nodes of face f of an element into
// out: row gi[axis][b] of the element's metric (as Metric returns it, or a
// frontend's own copy of those rows), gathered at the face nodes, with the
// face's sign. Set-up paths read it; the kernels do not.
func (m *Mesh) FaceArea(gi *[3][3][]float64, f, b int, out []float64) {
	sign := float64(octant.FaceSign(f))
	row := gi[octant.FaceAxis(f)][b][:m.Np]
	for fn, vn := range m.FaceIdx[f] {
		out[fn] = sign * row[vn]
	}
}

// Metric derives the metric terms of local element e from its node
// coordinates: dx/dxi by spectral differentiation of X (Gradient), then at
// each of the element's Np nodes the Jacobian determinant jac[n] and the
// cofactors gi[a][b][n] = J dxi_a/dx_b. It is the one place the mesh
// computes them; the mesh keeps only Jac, so the other terms are derived
// here by whoever reads them (a frontend's set-up, FaceArea). X is kept
// bitwise through every Rebuild, so they come out the same bits whenever
// they are derived. The slices are w's scratch, valid until w's next
// Metric. It panics on a non-positive Jacobian.
func (m *Mesh) Metric(w *Work, e int) (gi *[3][3][]float64, jac []float64) {
	np := m.Np
	if len(w.jac) < np {
		w.der, w.jac = make([]float64, 9*np), make([]float64, np)
		for a := range w.gi {
			for b := range w.gi[a] {
				w.gi[a][b] = make([]float64, np)
			}
		}
	}
	// der[(3*b+a)*np+n] = dx_b/dxi_a.
	der, base := w.der, e*np
	for b := 0; b < 3; b++ {
		d := der[3*b*np:]
		w.Gradient(m.X[b][base:base+np], d[:np], d[np:2*np], d[2*np:3*np])
	}
	// At each node, with dba = dx_b/dxi_a: J = det(d) and the cofactor
	// transpose gi[a][b] = d[b1][a1]*d[b2][a2] - d[b1][a2]*d[b2][a1]
	// (a1, a2 = a+1, a+2 and b1, b2 = b+1, b+2, mod 3), written out.
	d00, d01, d02 := der[:np], der[np:2*np], der[2*np:3*np]
	d10, d11, d12 := der[3*np:4*np], der[4*np:5*np], der[5*np:6*np]
	d20, d21, d22 := der[6*np:7*np], der[7*np:8*np], der[8*np:9*np]
	g := &w.gi
	jac = w.jac[:np]
	for n := range jac {
		a00, a01, a02 := d00[n], d01[n], d02[n]
		a10, a11, a12 := d10[n], d11[n], d12[n]
		a20, a21, a22 := d20[n], d21[n], d22[n]
		j := a00*(a11*a22-a12*a21) - a01*(a10*a22-a12*a20) + a02*(a10*a21-a11*a20)
		if j <= 0 {
			panic(fmt.Sprintf("mangll: non-positive Jacobian %v in element %d", j, e))
		}
		jac[n] = j
		g[0][0][n] = a11*a22 - a12*a21
		g[0][1][n] = a21*a02 - a22*a01
		g[0][2][n] = a01*a12 - a02*a11
		g[1][0][n] = a12*a20 - a10*a22
		g[1][1][n] = a22*a00 - a20*a02
		g[1][2][n] = a02*a10 - a00*a12
		g[2][0][n] = a10*a21 - a11*a20
		g[2][1][n] = a20*a01 - a21*a00
		g[2][2][n] = a00*a11 - a01*a10
	}
	return &w.gi, jac
}

// elemGeometry fills the coordinates, Jacobian and inverse mass of local
// element e.
func (m *Mesh) elemGeometry(w *Work, e int, geom connectivity.Geometry) {
	np1 := m.Np1
	o := m.F.Local[e]
	base := e * m.Np

	// Node coordinates.
	h := float64(o.Len()) / float64(octant.RootLen)
	t0 := [3]float64{
		connectivity.RefCoord(o.X),
		connectivity.RefCoord(o.Y),
		connectivity.RefCoord(o.Z),
	}
	n := 0
	for k := 0; k < np1; k++ {
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				xi := [3]float64{
					t0[0] + h*(m.L.X[i]+1)/2,
					t0[1] + h*(m.L.X[j]+1)/2,
					t0[2] + h*(m.L.X[k]+1)/2,
				}
				p := geom.X(o.Tree, xi)
				m.X[0][base+n] = p[0]
				m.X[1][base+n] = p[1]
				m.X[2][base+n] = p[2]
				n++
			}
		}
	}

	_, jac := m.Metric(w, e)
	copy(m.Jac[base:base+m.Np], jac)
	n = 0
	for k := 0; k < np1; k++ {
		for j := 0; j < np1; j++ {
			for i := 0; i < np1; i++ {
				m.MassInv[base+n] = 1 / (m.L.W[i] * m.L.W[j] * m.L.W[k] * jac[n])
				n++
			}
		}
	}
}

// applyD1 differentiates a single element's nodal values along reference
// direction a (0,1,2), writing into out. Tricubic elements (the order of
// the paper's advection runs and of the benchmarks) take the unrolled
// path; both sum each output over q ascending from zero, so they agree
// bitwise.
func (w *WorkOf[T]) applyD1(a int, u, out []T) {
	if w.m.Np1 == 4 {
		applyD1Cubic((*[16]T)(w.op.d), a, (*[64]T)(u), (*[64]T)(out))
		return
	}
	applyD1Generic(w.m.Np1, w.op.d, a, u, out)
}

// applyD1Generic is applyD1 for any order np1-1 with the flat
// differentiation matrix d.
func applyD1Generic[T Float](np1 int, d []T, a int, u, out []T) {
	switch a {
	case 0:
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				row := (j + np1*k) * np1
				for i := 0; i < np1; i++ {
					var s T
					di := d[i*np1 : i*np1+np1]
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
					var s T
					dj := d[j*np1 : j*np1+np1]
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
					var s T
					dk := d[k*np1 : k*np1+np1]
					for q := 0; q < np1; q++ {
						s += dk[q] * u[col+q*nf]
					}
					out[col+k*nf] = s
				}
			}
		}
	}
}

// applyD1Cubic is applyD1 for N = 3: each 4-point line along direction a
// is loaded once and hit with the four rows of d, the four sums advancing
// together so that no add waits on the one before it.
func applyD1Cubic[T Float](d *[16]T, a int, u, out *[64]T) {
	st := [3]int{1, 4, 16}[a]  // node stride along a
	so := [3]int{16, 16, 4}[a] // strides of the two transverse directions
	si := [3]int{4, 1, 1}[a]
	for o := 0; o < 4; o++ {
		for i := 0; i < 4; i++ {
			p := o*so + i*si
			u0, u1, u2, u3 := u[p&63], u[(p+st)&63], u[(p+2*st)&63], u[(p+3*st)&63]
			var s0, s1, s2, s3 T
			s0 += d[0] * u0
			s1 += d[4] * u0
			s2 += d[8] * u0
			s3 += d[12] * u0
			s0 += d[1] * u1
			s1 += d[5] * u1
			s2 += d[9] * u1
			s3 += d[13] * u1
			s0 += d[2] * u2
			s1 += d[6] * u2
			s2 += d[10] * u2
			s3 += d[14] * u2
			s0 += d[3] * u3
			s1 += d[7] * u3
			s2 += d[11] * u3
			s3 += d[15] * u3
			out[p&63], out[(p+st)&63], out[(p+2*st)&63], out[(p+3*st)&63] = s0, s1, s2, s3
		}
	}
}

func norm3(v [3]float64) float64 {
	return sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
}

// halfProjections builds the exact 1D L2 projection matrices from the two
// half intervals back to the parent interval: p = Plo u_lo + Phi u_hi.
// Mass and transfer integrals are evaluated with a quadrature of
// sufficient order, so projection is an exact left inverse of the half
// interpolation (polynomials survive a refine/coarsen round trip exactly).
func halfProjections(l *LGL, ilo, ihi [][]float64) (plo, phi [][]float64) {
	np1 := l.N + 1
	q := NewLGL(l.N + 2) // exact for degree 2N integrands
	// Parent basis at quadrature points, and at the images of the
	// quadrature points inside each half.
	phiQ := l.InterpMatrix(q.X)
	toLo := make([]float64, len(q.X))
	toHi := make([]float64, len(q.X))
	for i, x := range q.X {
		toLo[i] = (x - 1) / 2
		toHi[i] = (x + 1) / 2
	}
	phiLo := l.InterpMatrix(toLo)
	phiHi := l.InterpMatrix(toHi)

	mass := make([][]float64, np1)
	bLo := make([][]float64, np1)
	bHi := make([][]float64, np1)
	for i := 0; i < np1; i++ {
		mass[i] = make([]float64, np1)
		bLo[i] = make([]float64, np1)
		bHi[i] = make([]float64, np1)
		for j := 0; j < np1; j++ {
			for qp := range q.X {
				mass[i][j] += q.W[qp] * phiQ[qp][i] * phiQ[qp][j]
				// integral over the half interval of (child basis j) *
				// (parent basis i), with the 1/2 interval scaling.
				bLo[i][j] += 0.5 * q.W[qp] * phiLo[qp][i] * phiQ[qp][j]
				bHi[i][j] += 0.5 * q.W[qp] * phiHi[qp][i] * phiQ[qp][j]
			}
		}
	}
	plo = solveDenseMulti(mass, bLo)
	phi = solveDenseMulti(mass, bHi)
	return plo, phi
}

// solveDenseMulti solves A X = B for X with Gaussian elimination and
// partial pivoting (A is a small SPD mass matrix).
func solveDenseMulti(a, b [][]float64) [][]float64 {
	n := len(a)
	// Copy into augmented form.
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, 2*n)
		copy(m[i], a[i])
		copy(m[i][n:], b[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		piv := m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			fac := m[r][col] / piv
			for cc := col; cc < 2*n; cc++ {
				m[r][cc] -= fac * m[col][cc]
			}
		}
	}
	x := make([][]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			x[i][j] = m[i][n+j] / m[i][i]
		}
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
