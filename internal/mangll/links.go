package mangll

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// linkAlignment derives the face-grid alignment flags from the inter-tree
// transform (identity for intra-tree connections). See FaceLink.MapIndex.
func linkAlignment(ft *connectivity.FaceTransform, myFace int) (swap, revI, revJ bool) {
	if ft == nil {
		return false, false, false
	}
	u, v := faceTangentAxes(myFace)
	u2, su := imageAxis(ft, u)
	v2, sv := imageAxis(ft, v)
	up, vp := faceTangentAxes(int(ft.Face))
	switch {
	case u2 == up && v2 == vp:
		return false, su < 0, sv < 0
	case u2 == vp && v2 == up:
		return true, sv < 0, su < 0
	}
	panic("mangll: degenerate face transform")
}

func imageAxis(ft *connectivity.FaceTransform, a int) (int, int32) {
	for r := 0; r < 3; r++ {
		if ft.A[r][a] != 0 {
			return r, ft.A[r][a]
		}
	}
	panic("mangll: singular face transform")
}

// buildLinks enumerates the face connections of all local elements. The
// forest must be 2:1 balanced; neighbour leaves are found by the fast
// binary searches the paper describes, in local storage or the ghost layer
// at partition boundaries. After enumeration the elements are classified:
// a boundary element has a link that reads ghost data, so all its links
// wait for the exchange to finish; the links of interior elements (and
// every volume kernel) overlap with it.
func (m *Mesh) buildLinks() {
	m.Links = m.Links[:0]
	for e, o := range m.F.Local {
		for f := 0; f < 6; f++ {
			m.linkFace(int32(e), o, f)
		}
	}

	onBnd := make([]bool, m.NumLocal)
	for li := range m.Links {
		if l := &m.Links[li]; l.Kind != LinkBoundary && l.NbrGhost {
			onBnd[l.Elem] = true
		}
	}
	m.InteriorElems, m.BoundaryElems = m.InteriorElems[:0], m.BoundaryElems[:0]
	for e, b := range onBnd {
		if b {
			m.BoundaryElems = append(m.BoundaryElems, int32(e))
		} else {
			m.InteriorElems = append(m.InteriorElems, int32(e))
		}
	}
	m.intLinks, m.bndLinks = m.intLinks[:0], m.bndLinks[:0]
	for li := range m.Links {
		if onBnd[m.Links[li].Elem] {
			m.bndLinks = append(m.bndLinks, int32(li))
		} else {
			m.intLinks = append(m.intLinks, int32(li))
		}
	}
}

func (m *Mesh) linkFace(e int32, o octant.Octant, f int) {
	n := o.FaceNeighbor(f)
	var ft *connectivity.FaceTransform
	nbrFace := int8(f ^ 1)
	if !n.Inside() {
		x, ok := m.F.Conn.FaceXform(o.Tree, f)
		if !ok {
			m.Links = append(m.Links, FaceLink{Elem: e, Face: int8(f), Kind: LinkBoundary})
			return
		}
		ft = &x
		n = ft.Octant(n)
		nbrFace = ft.Face
	}
	swap, revI, revJ := linkAlignment(ft, f)
	base := FaceLink{
		Elem: e, Face: int8(f), NbrFace: nbrFace,
		Swap: swap, RevI: revI, RevJ: revJ,
	}

	leaf, idx, ghost, found := m.F.FindLeafOrGhost(m.G, n)
	if found && leaf.Level <= n.Level {
		switch {
		case leaf.Level == n.Level:
			l := base
			l.Kind = LinkEqual
			l.Nbr, l.NbrGhost = int32(idx), ghost
			m.Links = append(m.Links, l)
			return
		case leaf.Level == n.Level-1:
			l := base
			l.Kind = LinkToCoarse
			l.Nbr, l.NbrGhost = int32(idx), ghost
			up, vp := faceTangentAxes(int(nbrFace))
			nc := [3]int32{n.X, n.Y, n.Z}
			qc := [3]int32{leaf.X, leaf.Y, leaf.Z}
			if nc[up] != qc[up] {
				l.QuadI = 1
			}
			if nc[vp] != qc[vp] {
				l.QuadJ = 1
			}
			m.Links = append(m.Links, l)
			return
		default:
			panic(fmt.Sprintf("mangll: face neighbour %v of %v coarser than 2:1 (level %d)", leaf, o, leaf.Level))
		}
	}

	// Hanging face: four half-size neighbours across the face.
	for _, ci := range octant.FaceCorners[nbrFace] {
		child := n.Child(ci)
		leaf, idx, ghost, found := m.F.FindLeafOrGhost(m.G, child)
		if !found || leaf != child {
			panic(fmt.Sprintf("mangll: missing half-size neighbour %v of %v (found %v, ok=%v)", child, o, leaf, found))
		}
		up, vp := faceTangentAxes(int(nbrFace))
		bu := ci >> uint(up) & 1
		bv := ci >> uint(vp) & 1
		// Invert the index map to express the quadrant in my face frame.
		a, b := bu, bv
		if revI {
			a = 1 - a
		}
		if revJ {
			b = 1 - b
		}
		qi, qj := a, b
		if swap {
			qi, qj = b, a
		}
		l := base
		l.Kind = LinkToFineQuad
		l.Nbr, l.NbrGhost = int32(idx), ghost
		l.QuadI, l.QuadJ = int8(qi), int8(qj)
		m.Links = append(m.Links, l)
	}
}

// TagGhostField is the user tag of the split-phase ghost field exchange.
// Both sides of the exchange know their peers from the ghost layer, so the
// messages flow directly on this tag with no discovery traffic: exactly
// one message per directed neighbor pair per exchange.
const TagGhostField = 300

// buildGhostExchange precomputes the aligned per-rank element lists for
// ghost field exchange: mirrors (local leaves some peer sees as ghosts) on
// the send side, ghost slots by owner on the receive side. Both sides are
// in curve order, so the lists align without further negotiation. Peers
// are kept as sorted parallel slices so every exchange walks them in the
// same deterministic order with no map iteration or per-call allocation.
func (m *Mesh) buildGhostExchange() {
	send := make(map[int][]int32)
	for k, li := range m.G.Mirrors {
		for _, r := range m.G.MirrorRanks[k] {
			send[r] = append(send[r], int32(li))
		}
	}
	recv := make(map[int][]int32)
	for gi, r := range m.G.Owner {
		recv[r] = append(recv[r], int32(gi))
	}
	m.sendPeers, m.sendLists = sortedPeerLists(send)
	m.recvPeers, m.recvLists = sortedPeerLists(recv)
	for p := range m.sendBufs {
		m.sendBufs[p] = make([][]float64, len(m.sendPeers))
		m.sendBoxed[p] = make([]any, len(m.sendPeers))
	}
	m.recvReqs = make([]*mpi.Request, len(m.recvPeers))
}

func sortedPeerLists(byRank map[int][]int32) ([]int, [][]int32) {
	peers := make([]int, 0, len(byRank))
	for r := range byRank {
		peers = append(peers, r)
	}
	sort.Ints(peers)
	lists := make([][]int32, len(peers))
	for i, r := range peers {
		lists[i] = byRank[r]
	}
	return peers, lists
}

// GhostExchange is an in-flight split-phase ghost exchange started by
// StartGhostExchange. At most one may be outstanding per mesh; the value
// is owned by the mesh so starting an exchange does not allocate.
type GhostExchange struct {
	m     *Mesh
	nc    int
	field []float64
}

// StartGhostExchange begins filling the ghost portion of a field array:
// it posts the receives, packs and sends the mirror elements, and returns
// immediately so the caller can compute on interior data while the
// messages are in flight. field holds nc values per node for
// NumLocal+NumGhost elements; the local part [0, NumLocal*Np*nc) must be
// filled and must not be rewritten until Finish (the sends alias nothing,
// but the exchange semantics are a snapshot at Start). The ghost part is
// valid after Finish returns.
func (m *Mesh) StartGhostExchange(nc int, field []float64) *GhostExchange {
	per := m.Np * nc
	if len(field) != (m.NumLocal+m.NumGhost)*per {
		panic("mangll: StartGhostExchange field length mismatch")
	}
	if m.exchActive {
		panic("mangll: ghost exchange already in flight")
	}
	m.exchActive = true
	c := m.F.Comm
	// Post all receives before sending so arriving payloads complete the
	// posted requests directly instead of sitting in the mailbox queue.
	for k, r := range m.recvPeers {
		m.recvReqs[k] = c.Irecv(r, TagGhostField)
	}
	p := m.sendParity
	m.sendParity ^= 1
	for k, r := range m.sendPeers {
		list := m.sendLists[k]
		buf, boxed := m.sendStaging(p, k, len(list)*per)
		for i, li := range list {
			copy(buf[i*per:(i+1)*per], field[int(li)*per:(int(li)+1)*per])
		}
		c.Isend(r, TagGhostField, boxed)
	}
	m.exch = GhostExchange{m: m, nc: nc, field: field}
	return &m.exch
}

// sendStaging returns the parity-p staging buffer for send peer k, sized
// to n values, together with its pre-boxed interface value (boxing a
// slice allocates, so the boxed form is cached alongside the buffer and
// only rebuilt when the buffer is resized).
func (m *Mesh) sendStaging(p, k, n int) ([]float64, any) {
	buf := m.sendBufs[p][k]
	if len(buf) != n {
		buf = make([]float64, n)
		m.sendBufs[p][k] = buf
		m.sendBoxed[p][k] = buf
	}
	return buf, m.sendBoxed[p][k]
}

// Finish completes the exchange: it waits for each peer's message —
// only time actually spent blocked is attributed as receive wait — and
// unpacks the ghost elements into the field passed to StartGhostExchange.
func (g *GhostExchange) Finish() {
	m := g.m
	if !m.exchActive || g != &m.exch {
		panic("mangll: Finish without active ghost exchange")
	}
	per := m.Np * g.nc
	for k := range m.recvPeers {
		payload, _ := m.recvReqs[k].Wait()
		m.recvReqs[k] = nil
		buf := payload.([]float64)
		list := m.recvLists[k]
		if len(buf) != len(list)*per {
			panic("mangll: ghost exchange length mismatch")
		}
		for i, gi := range list {
			dst := (m.NumLocal + int(gi)) * per
			copy(g.field[dst:dst+per], buf[i*per:(i+1)*per])
		}
	}
	m.exchActive = false
}

// ExchangeGhost fills the ghost portion of a field array. field holds nc
// values per node for NumLocal+NumGhost elements: the local part
// [0, NumLocal*Np*nc) must be filled; the ghost part is received from the
// owning ranks. It is the blocking composition of StartGhostExchange and
// Finish, with no compute overlapped.
func (m *Mesh) ExchangeGhost(nc int, field []float64) {
	m.StartGhostExchange(nc, field).Finish()
}

// tensor2ApplyBuf computes out = (A (x) B) u on an n x n grid: out[i,j] =
// sum_{p,q} A[i*n+p] B[j*n+q] u[p,q]. a and b are row-major n x n
// matrices; tmp is caller-provided scratch (len n*n; must not alias u or
// out).
func tensor2ApplyBuf[T Float](n int, a, b, u, out, tmp []T) {
	_ = tmp[n*n-1]
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s T
			ai := a[i*n : i*n+n]
			for p := 0; p < n; p++ {
				s += ai[p] * u[p+n*j]
			}
			tmp[i+n*j] = s
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s T
			bj := b[j*n : j*n+n]
			for q := 0; q < n; q++ {
				s += bj[q] * tmp[i+n*q]
			}
			out[i+n*j] = s
		}
	}
}

// tensor2ApplyNC computes out = (A (x) B) u on an n x n grid of nodes that
// each carry nc interleaved values: out[i,j] = sum_{p,q} A[i*n+p] B[j*n+q]
// u[p,q], component by component, out node-major. a and b are row-major
// n x n matrices; node k of u is read at u[idx[k]*nc:], or at u[k*nc:]
// when idx is nil (a face gather folded into the first pass); tmp is
// caller-provided scratch (len n*n*nc; must not alias u or out). Every
// output sums over p (then q) ascending from zero, whatever nc; n = 4 (the
// paper's N = 3 runs and the benchmarks) takes the unrolled path.
func tensor2ApplyNC[T Float](n, nc int, a, b []T, idx []int32, u, out, tmp []T) {
	if n != 4 {
		tensor2ApplyNCGeneric(n, nc, a, b, idx, u, out, tmp)
		return
	}
	node := func(s []T, k int) []T { return s[k*nc : (k+1)*nc] }
	a4, b4 := (*[16]T)(a), (*[16]T)(b)
	for j := 0; j < 16; j += 4 {
		p0, p1, p2, p3 := j, j+1, j+2, j+3
		if idx != nil {
			p0, p1, p2, p3 = int(idx[j]), int(idx[j+1]), int(idx[j+2]), int(idx[j+3])
		}
		mul4(a4, node(u, p0), node(u, p1), node(u, p2), node(u, p3),
			node(tmp, j), node(tmp, j+1), node(tmp, j+2), node(tmp, j+3))
	}
	for i := 0; i < 4; i++ {
		mul4(b4, node(tmp, i), node(tmp, i+4), node(tmp, i+8), node(tmp, i+12),
			node(out, i), node(out, i+4), node(out, i+8), node(out, i+12))
	}
}

// mul4 sets o_r = sum_p m[4r+p] x_p for the row-major 4 x 4 matrix m,
// component by component: the four sums of one component over p ascending
// from zero, advancing together so that no add waits on the one before
// it. The x_p and o_r are nodes of nc values.
func mul4[T Float](m *[16]T, x0, x1, x2, x3, o0, o1, o2, o3 []T) {
	n := len(o0)
	x0, x1, x2, x3, o1, o2, o3 = x0[:n], x1[:n], x2[:n], x3[:n], o1[:n], o2[:n], o3[:n]
	for c := range o0 {
		u0, u1, u2, u3 := x0[c], x1[c], x2[c], x3[c]
		var s0, s1, s2, s3 T
		s0 += m[0] * u0
		s1 += m[4] * u0
		s2 += m[8] * u0
		s3 += m[12] * u0
		s0 += m[1] * u1
		s1 += m[5] * u1
		s2 += m[9] * u1
		s3 += m[13] * u1
		s0 += m[2] * u2
		s1 += m[6] * u2
		s2 += m[10] * u2
		s3 += m[14] * u2
		s0 += m[3] * u3
		s1 += m[7] * u3
		s2 += m[11] * u3
		s3 += m[15] * u3
		o0[c], o1[c], o2[c], o3[c] = s0, s1, s2, s3
	}
}

// tensor2ApplyNCGeneric is tensor2ApplyNC for any n.
func tensor2ApplyNCGeneric[T Float](n, nc int, a, b []T, idx []int32, u, out, tmp []T) {
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			t := tmp[(i+n*j)*nc : (i+n*j+1)*nc]
			for c := range t {
				t[c] = 0
			}
			for p, ap := range a[i*n : i*n+n] {
				k := p + n*j
				if idx != nil {
					k = int(idx[k])
				}
				up := u[k*nc : (k+1)*nc]
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

// weightedTranspose returns Pw[i][j] = 0.5 * W[j] * I[j][i], the half-face
// quadrature transfer operator.
func weightedTranspose(l *LGL, in [][]float64) [][]float64 {
	np1 := l.N + 1
	out := make([][]float64, np1)
	for i := 0; i < np1; i++ {
		out[i] = make([]float64, np1)
		for j := 0; j < np1; j++ {
			out[i][j] = 0.5 * l.W[j] * in[j][i]
		}
	}
	return out
}
