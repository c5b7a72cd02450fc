package connectivity

import (
	"fmt"

	"repro/internal/octant"
)

// FaceTransform is the exact integer coordinate transformation across an
// inter-tree face connection: p' = A p + B, where A is a signed permutation
// matrix (rows indexed by target axis). It maps coordinates of the source
// tree — including exterior octants beyond the shared face — into the target
// tree's coordinate system, accounting for the relative rotation of the two
// trees (paper §II.D and Figure 3).
type FaceTransform struct {
	Tree int32 // target tree
	Face int8  // target face
	A    [3][3]int32
	B    [3]int32
}

// Point applies the transform to a lattice point.
func (ft *FaceTransform) Point(p [3]int32) [3]int32 {
	return ft.PointScaled(p, 1)
}

// PointScaled applies the transform on the lattice refined by `scale`
// (coordinates in [0, scale*RootLen]): the linear part is scale-invariant
// and the offset scales.
func (ft *FaceTransform) PointScaled(p [3]int32, scale int32) [3]int32 {
	var q [3]int32
	for i := 0; i < 3; i++ {
		q[i] = ft.A[i][0]*p[0] + ft.A[i][1]*p[1] + ft.A[i][2]*p[2] + scale*ft.B[i]
	}
	return q
}

// Octant applies the transform to an octant, returning the image octant in
// the target tree. The image of the cube spanned by the octant is computed
// from two opposite corners; axis flips are absorbed by taking the minimum.
func (ft *FaceTransform) Octant(o octant.Octant) octant.Octant {
	h := o.Len()
	lo := ft.Point([3]int32{o.X, o.Y, o.Z})
	hi := ft.Point([3]int32{o.X + h, o.Y + h, o.Z + h})
	for i := 0; i < 3; i++ {
		if hi[i] < lo[i] {
			lo[i] = hi[i]
		}
	}
	return octant.Octant{X: lo[0], Y: lo[1], Z: lo[2], Level: o.Level, Tree: ft.Tree}
}

// faceTangents returns the two transverse axes of face f in ascending order;
// corner bit 0 of the face's z-order corner numbering varies along u and
// bit 1 along v.
func faceTangents(f int8) (u, v int) {
	switch octant.FaceAxis(int(f)) {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// buildFaceTransform derives the affine signed-permutation map for the face
// connection (t, f) -> (fc.Tree, fc.Face) with corner permutation fc.Perm.
func buildFaceTransform(t int32, f int8, fc FaceConn) (FaceTransform, error) {
	srcCorners := octant.FaceCorners[f]
	dstCorners := octant.FaceCorners[fc.Face]
	q0 := cornerCoord(srcCorners[0])
	q0p := cornerCoord(dstCorners[fc.Perm[0]])
	q1p := cornerCoord(dstCorners[fc.Perm[1]])
	q2p := cornerCoord(dstCorners[fc.Perm[2]])
	q3p := cornerCoord(dstCorners[fc.Perm[3]])

	// The permutation must be an affine map of the face lattice.
	for i := 0; i < 3; i++ {
		if q3p[i]-q0p[i] != (q1p[i]-q0p[i])+(q2p[i]-q0p[i]) {
			return FaceTransform{}, fmt.Errorf("connectivity: non-affine corner permutation %v between t%df%d and t%df%d", fc.Perm, t, f, fc.Tree, fc.Face)
		}
	}

	u, v := faceTangents(f)
	a := octant.FaceAxis(int(f))
	s := octant.FaceSign(int(f))
	a2 := octant.FaceAxis(int(fc.Face))
	s2 := octant.FaceSign(int(fc.Face))

	ft := FaceTransform{Tree: fc.Tree, Face: fc.Face}
	for i := 0; i < 3; i++ {
		ft.A[i][u] = (q1p[i] - q0p[i]) / octant.RootLen
		ft.A[i][v] = (q2p[i] - q0p[i]) / octant.RootLen
	}
	// The outward normal of the source face maps to the inward normal of the
	// target face.
	ft.A[a2][a] = -s * s2

	for i := 0; i < 3; i++ {
		ft.B[i] = -(ft.A[i][0]*q0[0] + ft.A[i][1]*q0[1] + ft.A[i][2]*q0[2])
		ft.B[i] += q0p[i]
	}

	if d := det3(ft.A); d != 1 {
		return FaceTransform{}, fmt.Errorf("connectivity: orientation-reversing connection between t%df%d and t%df%d (det %d); trees must all use right-handed coordinate systems", t, f, fc.Tree, fc.Face, d)
	}
	return ft, nil
}

func det3(a [3][3]int32) int32 {
	return a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
}

// edgeTransverse returns, for edge e, its two transverse axes in the order
// used by the edge numbering's position bits.
func edgeTransverse(e int8) (t0, t1 int) {
	switch octant.EdgeAxis(int(e)) {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// edgeImageOctant maps an exterior octant n of the source tree that touches
// macro-edge (srcTree, srcEdge) from outside — or an interior octant
// touching it from inside — to the octant adjacent to member m's edge inside
// m's tree, at the corresponding position along the edge. w is n's
// coordinate along the source edge axis.
func edgeImageOctant(n octant.Octant, srcEdge int8, srcFlip bool, m EdgeMember) octant.Octant {
	h := n.Len()
	w := [3]int32{n.X, n.Y, n.Z}[octant.EdgeAxis(int(srcEdge))]
	if srcFlip != m.Flip {
		w = octant.RootLen - h - w
	}
	var p [3]int32
	ax := octant.EdgeAxis(int(m.Edge))
	p[ax] = w
	t0, t1 := edgeTransverse(m.Edge)
	if int(m.Edge)&1 != 0 {
		p[t0] = octant.RootLen - h
	}
	if int(m.Edge)&2 != 0 {
		p[t1] = octant.RootLen - h
	}
	return octant.Octant{X: p[0], Y: p[1], Z: p[2], Level: n.Level, Tree: m.Tree}
}

// cornerImageOctant maps an octant of size h diagonally adjacent to a
// macro-corner to the octant adjacent to member m's corner inside m's tree.
func cornerImageOctant(level int8, m CornerMember) octant.Octant {
	h := octant.Len(level)
	var p [3]int32
	if m.Corner&1 != 0 {
		p[0] = octant.RootLen - h
	}
	if m.Corner&2 != 0 {
		p[1] = octant.RootLen - h
	}
	if m.Corner&4 != 0 {
		p[2] = octant.RootLen - h
	}
	return octant.Octant{X: p[0], Y: p[1], Z: p[2], Level: level, Tree: m.Tree}
}

func (c *Conn) appendFace(dst []octant.Octant, o octant.Octant, f int) []octant.Octant {
	n := o.FaceNeighbor(f)
	if n.Inside() {
		return append(dst, n)
	}
	ft, ok := c.FaceXform(o.Tree, f)
	if !ok {
		return dst
	}
	return append(dst, ft.Octant(n))
}

func (c *Conn) appendEdge(dst []octant.Octant, o octant.Octant, e int) []octant.Octant {
	n := o.EdgeNeighbor(e)
	if n.Inside() {
		return append(dst, n)
	}
	d := n.ExteriorFaces()
	switch countNonzero(d) {
	case 1:
		return c.appendThroughFace(dst, o.Tree, n, d)
	case 2:
		ax := octant.EdgeAxis(e)
		et := treeEdgeFromExterior(ax, d)
		return c.appendEdgeGroup(dst, o.Tree, et, n)
	}
	panic("connectivity: edge neighbour exterior in 3 axes")
}

func (c *Conn) appendCorner(dst []octant.Octant, o octant.Octant, k int) []octant.Octant {
	n := o.CornerNeighbor(k)
	if n.Inside() {
		return append(dst, n)
	}
	d := n.ExteriorFaces()
	switch countNonzero(d) {
	case 1:
		return c.appendThroughFace(dst, o.Tree, n, d)
	case 2:
		ax := interiorAxis(d)
		et := treeEdgeFromExterior(ax, d)
		return c.appendEdgeGroup(dst, o.Tree, et, n)
	case 3:
		kt := 0
		for i := 0; i < 3; i++ {
			if d[i] > 0 {
				kt |= 1 << i
			}
		}
		for _, m := range c.CornerGroup(o.Tree, kt) {
			if m.Tree == o.Tree && int(m.Corner) == kt {
				continue
			}
			dst = append(dst, cornerImageOctant(n.Level, m))
		}
		return dst
	}
	panic("connectivity: unreachable")
}

func (c *Conn) appendThroughFace(dst []octant.Octant, t int32, n octant.Octant, d [3]int) []octant.Octant {
	f := 0
	for i := 0; i < 3; i++ {
		if d[i] != 0 {
			f = 2 * i
			if d[i] > 0 {
				f++
			}
		}
	}
	ft, ok := c.FaceXform(t, f)
	if !ok {
		return dst
	}
	img := ft.Octant(n)
	if !img.Inside() {
		// The neighbour also leaves the target tree (e.g. an edge neighbour
		// sliding past the end of a shared face at the domain boundary).
		return dst
	}
	return append(dst, img)
}

func (c *Conn) appendEdgeGroup(dst []octant.Octant, t int32, et int8, n octant.Octant) []octant.Octant {
	group := c.EdgeGroup(t, int(et))
	var selfFlip bool
	found := false
	for _, m := range group {
		if m.Tree == t && m.Edge == et {
			selfFlip = m.Flip
			found = true
			break
		}
	}
	if !found {
		return dst // boundary macro-edge: no other incidences
	}
	for _, m := range group {
		if m.Tree == t && m.Edge == et {
			continue
		}
		dst = append(dst, edgeImageOctant(n, et, selfFlip, m))
	}
	return dst
}

// treeEdgeFromExterior returns the tree edge index along axis ax whose
// position bits are determined by the exterior direction d.
func treeEdgeFromExterior(ax int, d [3]int) int8 {
	t0, t1 := edgeTransverse(int8(4 * ax))
	e := 4 * ax
	if d[t0] > 0 {
		e |= 1
	}
	if d[t1] > 0 {
		e |= 2
	}
	return int8(e)
}

func interiorAxis(d [3]int) int {
	for i := 0; i < 3; i++ {
		if d[i] == 0 {
			return i
		}
	}
	panic("connectivity: no interior axis")
}

func countNonzero(d [3]int) int {
	n := 0
	for _, v := range d {
		if v != 0 {
			n++
		}
	}
	return n
}

// Scope selects which same-size neighbour relations AppendNeighbors
// enumerates.
type Scope int

const (
	// Faces enumerates the neighbours across the 6 faces.
	Faces Scope = iota
	// FacesEdges adds the neighbours across the 12 edges.
	FacesEdges
	// FacesEdgesCorners adds the neighbours across the 8 corners.
	FacesEdgesCorners
)

// AppendNeighbors appends to dst the same-size neighbour images of o in
// scope s — across faces, then edges, then corners, each in index order —
// and returns the extended slice. A neighbour inside o's tree is appended
// as is; only one that leaves the tree goes through the inter-tree
// transforms. With a reused dst it allocates nothing.
func (c *Conn) AppendNeighbors(dst []octant.Octant, o octant.Octant, s Scope) []octant.Octant {
	for f := 0; f < octant.NumFaces; f++ {
		dst = c.appendFace(dst, o, f)
	}
	if s >= FacesEdges {
		for e := 0; e < octant.NumEdges; e++ {
			dst = c.appendEdge(dst, o, e)
		}
	}
	if s >= FacesEdgesCorners {
		for k := 0; k < octant.NumCorners; k++ {
			dst = c.appendCorner(dst, o, k)
		}
	}
	return dst
}

// AppendPointImages appends to dst every representation of the lattice
// point p of tree t across the forest, including (t, p) itself,
// deduplicated and sorted by (tree, z, y, x), and returns the extended
// slice; it allocates only when dst lacks the room. Coordinates live on
// the lattice refined by scale, in [0, scale*RootLen]: the high-order
// continuous node numbering uses scale = degree so that every tensor node
// position is an exact integer lattice point. Interior points have exactly
// one image; points on tree faces, macro-edges, or macro-corners have one
// image per incident tree representation. Nodes uses the first image as
// the canonical one ("assigned to the lowest numbered participating
// octree", paper §II.E): two lattice points represent the same physical
// mesh node iff their first images are equal.
func (c *Conn) AppendPointImages(dst []TreePoint, t int32, p [3]int32, scale int32) []TreePoint {
	lim := scale * octant.RootLen
	n0 := len(dst)
	images := append(dst, TreePoint{Tree: t, X: p[0], Y: p[1], Z: p[2]})

	var onLow, onHigh [3]bool
	nb := 0
	for i := 0; i < 3; i++ {
		v := p[i]
		if v == 0 {
			onLow[i] = true
			nb++
		} else if v == lim {
			onHigh[i] = true
			nb++
		}
	}
	if nb == 0 {
		return images
	}

	// Face images.
	for f := 0; f < 6; f++ {
		ax := octant.FaceAxis(f)
		if (f&1 == 0 && !onLow[ax]) || (f&1 == 1 && !onHigh[ax]) {
			continue
		}
		if ft, ok := c.FaceXform(t, f); ok {
			q := ft.PointScaled(p, scale)
			images = append(images, TreePoint{Tree: ft.Tree, X: q[0], Y: q[1], Z: q[2]})
		}
	}

	// Macro-edge images: p lies on tree edge e iff both transverse
	// coordinates sit on the matching boundary sides (any position along the
	// edge axis, endpoints included).
	if nb >= 2 {
		for e := 0; e < 12; e++ {
			t0, t1 := edgeTransverse(int8(e))
			want0 := e&1 != 0
			want1 := e&2 != 0
			if (want0 && !onHigh[t0]) || (!want0 && !onLow[t0]) ||
				(want1 && !onHigh[t1]) || (!want1 && !onLow[t1]) {
				continue
			}
			images = c.appendEdgePointImages(images, t, int8(e), p, lim)
		}
	}

	// Macro-corner images.
	if nb == 3 {
		kt := 0
		for i := 0; i < 3; i++ {
			if onHigh[i] {
				kt |= 1 << i
			}
		}
		for _, m := range c.CornerGroup(t, kt) {
			q := cornerCoord(int(m.Corner))
			images = append(images, TreePoint{
				Tree: m.Tree,
				X:    q[0] / octant.RootLen * lim,
				Y:    q[1] / octant.RootLen * lim,
				Z:    q[2] / octant.RootLen * lim,
			})
		}
	}

	return images[:n0+len(dedupPoints(images[n0:]))]
}

func (c *Conn) appendEdgePointImages(dst []TreePoint, t int32, e int8, p [3]int32, lim int32) []TreePoint {
	group := c.EdgeGroup(t, int(e))
	var selfFlip bool
	found := false
	for _, m := range group {
		if m.Tree == t && m.Edge == e {
			selfFlip = m.Flip
			found = true
			break
		}
	}
	if !found {
		return dst
	}
	w := [3]int32{p[0], p[1], p[2]}[octant.EdgeAxis(int(e))]
	for _, m := range group {
		wm := w
		if selfFlip != m.Flip {
			wm = lim - w
		}
		var q [3]int32
		q[octant.EdgeAxis(int(m.Edge))] = wm
		t0, t1 := edgeTransverse(m.Edge)
		if int(m.Edge)&1 != 0 {
			q[t0] = lim
		}
		if int(m.Edge)&2 != 0 {
			q[t1] = lim
		}
		dst = append(dst, TreePoint{Tree: m.Tree, X: q[0], Y: q[1], Z: q[2]})
	}
	return dst
}

func dedupPoints(pts []TreePoint) []TreePoint {
	sortPoints(pts)
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

func sortPoints(pts []TreePoint) {
	lessTP := func(a, b TreePoint) bool {
		if a.Tree != b.Tree {
			return a.Tree < b.Tree
		}
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	}
	// insertion sort: image lists are tiny (<= ~10 entries)
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && lessTP(pts[j], pts[j-1]); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

// octTouchesTreeEdge reports whether octant a's closed box contains part of
// its tree's edge e.
func octTouchesTreeEdge(a octant.Octant, e int) bool {
	h := a.Len()
	t0, t1 := edgeTransverse(int8(e))
	c := [3]int32{a.X, a.Y, a.Z}
	ok0 := c[t0] == 0
	if e&1 != 0 {
		ok0 = c[t0]+h == octant.RootLen
	}
	ok1 := c[t1] == 0
	if e&2 != 0 {
		ok1 = c[t1]+h == octant.RootLen
	}
	return ok0 && ok1
}

// octTouchesTreeCorner reports whether octant a's closed box contains its
// tree's corner k.
func octTouchesTreeCorner(a octant.Octant, k int) bool {
	h := a.Len()
	c := [3]int32{a.X, a.Y, a.Z}
	for axis := 0; axis < 3; axis++ {
		if k>>axis&1 != 0 {
			if c[axis]+h != octant.RootLen {
				return false
			}
		} else if c[axis] != 0 {
			return false
		}
	}
	return true
}

// boxesTouch reports whether the closed coordinate boxes of a and b (same
// tree frame assumed) intersect.
func boxesTouch(a, b octant.Octant) bool {
	ha, hb := a.Len(), b.Len()
	al := [3]int32{a.X, a.Y, a.Z}
	bl := [3]int32{b.X, b.Y, b.Z}
	for axis := 0; axis < 3; axis++ {
		if al[axis]+ha < bl[axis] || bl[axis]+hb < al[axis] {
			return false
		}
	}
	return true
}

// Touching reports whether leaves a and b share at least one boundary point
// (a face, edge, or corner contact), resolving inter-tree contact exactly
// through the macro connectivity. Leaves of a forest never overlap, so
// closed-box intersection within one coordinate frame is contact.
func (c *Conn) Touching(a, b octant.Octant) bool {
	if a.Tree == b.Tree && boxesTouch(a, b) {
		return true
	}
	// Contact through a shared macro-face: a's affine image in the
	// neighbouring tree lies beyond the target face and meets b only on the
	// shared plane.
	for f := 0; f < 6; f++ {
		if !a.TouchingFace(f) {
			continue
		}
		if ft, ok := c.FaceXform(a.Tree, f); ok && ft.Tree == b.Tree {
			if boxesTouch(ft.Octant(a), b) {
				return true
			}
		}
	}
	// Contact along a shared macro-edge: closed intervals along the edge
	// axis must intersect after orientation mapping.
	for e := 0; e < 12; e++ {
		if !octTouchesTreeEdge(a, e) {
			continue
		}
		group := c.EdgeGroup(a.Tree, e)
		var selfFlip bool
		for _, m := range group {
			if m.Tree == a.Tree && int(m.Edge) == e {
				selfFlip = m.Flip
			}
		}
		ha := a.Len()
		wa := [3]int32{a.X, a.Y, a.Z}[octant.EdgeAxis(e)]
		for _, m := range group {
			if m.Tree != b.Tree || !octTouchesTreeEdge(b, int(m.Edge)) {
				continue
			}
			if m.Tree == a.Tree && int(m.Edge) == e && a == b {
				continue
			}
			lo, hi := wa, wa+ha
			if selfFlip != m.Flip {
				lo, hi = octant.RootLen-wa-ha, octant.RootLen-wa
			}
			wb := [3]int32{b.X, b.Y, b.Z}[octant.EdgeAxis(int(m.Edge))]
			if lo <= wb+b.Len() && wb <= hi {
				return true
			}
		}
	}
	// Contact at a shared macro-corner.
	for k := 0; k < 8; k++ {
		if !octTouchesTreeCorner(a, k) {
			continue
		}
		for _, m := range c.CornerGroup(a.Tree, k) {
			if m.Tree == b.Tree && octTouchesTreeCorner(b, int(m.Corner)) {
				return true
			}
		}
	}
	return false
}
