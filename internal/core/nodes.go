package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// NodeRef ties one element corner to the mesh nodes it reads: a single
// independent node, or — for a hanging corner — the 2 (coarse edge) or 4
// (coarse face) anchor nodes it interpolates with equal weights, as in the
// paper's trilinear continuous Galerkin discretization ("nodal values on
// half-size faces or edges ... are constrained to interpolate neighboring
// unknowns", §II.E).
type NodeRef struct {
	// Nodes holds local node indices; len 1 (independent), 2, or 4. Corners
	// at one lattice point share the array behind it: read only.
	Nodes []int32
}

// Independent reports whether the corner carries its own unknown.
func (r NodeRef) Independent() bool { return len(r.Nodes) == 1 }

// Weight returns the interpolation weight of each referenced node.
func (r NodeRef) Weight() float64 { return 1 / float64(len(r.Nodes)) }

// Nodes is the globally unique numbering of the independent trilinear
// unknowns referenced by this rank's elements, produced by Forest.Nodes.
type Nodes struct {
	// ElementNodes[e][c] describes corner c of local element e.
	ElementNodes [][8]NodeRef
	// Keys, GlobalID, Owner, NumOwned, OwnedOffset and NumGlobal.
	numbering
}

// numbering is what Nodes and LNodes share: the canonical points of all
// locally referenced nodes with their global ids and owners, and the lists
// that route shared values through the owners.
type numbering struct {
	// Keys holds the canonical points of the local nodes, ascending;
	// parallel arrays give their global ids and owners.
	Keys     []connectivity.TreePoint
	GlobalID []int64
	Owner    []int
	// NumOwned counts locally owned nodes; they occupy global ids
	// [OwnedOffset, OwnedOffset+NumOwned).
	NumOwned    int
	OwnedOffset int64
	NumGlobal   int64
	// Owner-routed communication lists: reqLists[r] holds the local indices
	// of nodes owned by rank r that this rank references; serveLists[r]
	// holds the local indices of nodes owned by this rank that rank r
	// references. Both are in the requester's key order, so the two sides
	// stay aligned.
	reqLists   map[int][]int32
	serveLists map[int][]int32

	comm *mpi.Comm
}

// pointOwner determines, from shared meta-data only, the rank owning the
// node at canonical point key of the lattice refined by scale: the owner of
// the curve-smallest max-level cell whose closed region touches the node,
// over every inter-tree image of the point. Every rank referencing the node
// computes the same owner, and the owner always references the node itself
// (the leaf containing that cell has the node on its boundary). The Morton
// key grows with each coordinate, so an image's smallest touching cell is
// the one on the low side of the point along every axis where the point
// does not sit on the tree's low face. A point strictly inside its tree has
// one image and costs one key; with the own-segment fast path of
// OwnerOfPosition that makes the subdomain interior O(1), and only points
// on tree boundaries enumerate images.
func (f *Forest) pointOwner(key connectivity.TreePoint, scale int32) int {
	low := func(v int32) int32 {
		if v%scale == 0 && v > 0 {
			return v/scale - 1
		}
		return v / scale
	}
	lowCell := func(im connectivity.TreePoint) Marker {
		return markerOf(octant.Octant{X: low(im.X), Y: low(im.Y), Z: low(im.Z), Level: octant.MaxLevel, Tree: im.Tree})
	}
	min := lowCell(key)
	if !insideTree(key, scale) {
		for _, im := range f.Conn.PointImagesScaled(key.Tree, [3]int32{key.X, key.Y, key.Z}, scale) {
			if m := lowCell(im); m.Less(min) {
				min = m
			}
		}
	}
	return f.OwnerOfPosition(min)
}

// insideTree reports whether the point lies strictly inside its tree on the
// lattice refined by scale, where it is its own only image.
func insideTree(p connectivity.TreePoint, scale int32) bool {
	lim := scale * octant.RootLen
	return p.X > 0 && p.X < lim && p.Y > 0 && p.Y < lim && p.Z > 0 && p.Z < lim
}

// canonical returns the canonical image of point p of tree t on the lattice
// refined by scale, the first of Conn.PointImagesScaled, without enumerating
// images for a point strictly inside its tree.
func (f *Forest) canonical(t int32, p [3]int32, scale int32) connectivity.TreePoint {
	if k := (connectivity.TreePoint{Tree: t, X: p[0], Y: p[1], Z: p[2]}); insideTree(k, scale) {
		return k
	}
	return f.Conn.PointImagesScaled(t, p, scale)[0]
}

// cornerRec is one element corner on its way to a node reference.
type cornerRec struct {
	at   uint64 // lattice point z<<2b | y<<b | x over b = deepest level + 1 bits: the sort key within a tree
	ref  int32  // element*8 + corner
	hang uint8  // log2 of the number of nodes the corner reads: 0, 1 or 2
}

// keySlot asks for the local index of a canonical key to be stored in one
// slot of a reference array.
type keySlot struct {
	key  connectivity.TreePoint
	slot int32
}

// sortKey is (tree, z, y, x), 32 bits each: compareTreePoint's order for w.key ≥ 0.
func (w *keySlot) sortKey() (uint64, uint64) {
	return uint64(w.key.Tree)<<32 | uint64(w.key.Z), uint64(w.key.Y)<<32 | uint64(w.key.X)
}

// intern groups the wanted keys with radixSort, returns the distinct ones
// ascending and stores the index of each slot's key in refs.
func intern(want []keySlot, refs []int32) []connectivity.TreePoint {
	radixSort(want, (*keySlot).sortKey)
	n := 0
	for i := range want {
		if i == 0 || want[i].key != want[i-1].key {
			n++
		}
	}
	keys := make([]connectivity.TreePoint, 0, n)
	for i, w := range want {
		if i == 0 || w.key != want[i-1].key {
			keys = append(keys, w.key)
		}
		refs[w.slot] = int32(len(keys) - 1)
	}
	return keys
}

// Nodes creates the globally unique numbering of the trilinear continuous
// unknowns (paper §II.E). The forest must be 2:1 balanced (BalanceFull) and
// ghost must be the current ghost layer. Independent nodes on octree
// boundaries are canonicalized to the lowest participating tree; hanging
// corners are constrained to the corners of the coarse face or edge they
// sit on.
//
// Where a corner hangs follows from the leaf's position in its parent
// (hangingCorners): six questions, each asked once per sibling family. Each
// distinct lattice point is then resolved once — a tree's corners are
// grouped by radixSort on the bits that vary, and a run of equal points
// shares one set of references — and the keys are numbered by radixSort.
func (f *Forest) Nodes(ghost *GhostLayer) *Nodes {
	defer f.span("nodes").End()
	search := mergeLeaves(f.Local, ghost.Octants)

	var deepest int8
	for _, o := range f.Local {
		deepest = max(deepest, o.Level)
	}
	shift, b := octant.MaxLevel-deepest, deepest+1
	var families [octant.MaxLevel + 1]family
	recs := make([]cornerRec, 0, 8*len(f.Local))
	for e, o := range f.Local {
		onEdge, onFace := f.hangingCorners(search, &families[o.Level], o)
		for c := 0; c < 8; c++ {
			x, y, z := o.Corner(c)
			recs = append(recs, cornerRec{
				at:   uint64(z>>shift)<<(2*b) | uint64(y>>shift)<<b | uint64(x>>shift),
				ref:  int32(e*8 + c),
				hang: onEdge>>c&1 + onFace>>c&1<<1,
			})
		}
	}

	// Group each tree's corners by point. A run of equal points is one
	// lattice point; count the references the runs will ask for.
	slots := 0
	for lo := 0; lo < len(f.Local); {
		hi := lo
		for hi < len(f.Local) && f.Local[hi].Tree == f.Local[lo].Tree {
			hi++
		}
		tree := recs[8*lo : 8*hi]
		radixSort(tree, func(r *cornerRec) (uint64, uint64) { return 0, r.at })
		for i, r := range tree {
			if i == 0 || r.at != tree[i-1].at {
				slots += 1 << r.hang
			}
		}
		lo = hi
	}

	// Resolve each point once; its corners share one slice of refs.
	nd := &Nodes{ElementNodes: make([][8]NodeRef, len(f.Local))}
	refs := make([]int32, slots)
	want := make([]keySlot, 0, slots)
	for i := 0; i < len(recs); {
		r, off := recs[i], len(want)
		o := f.Local[r.ref>>3]
		p := [3]int32{int32(r.at&(1<<b-1)) << shift, int32(r.at>>b&(1<<b-1)) << shift, int32(r.at>>(2*b)) << shift}
		if r.hang == 0 {
			want = append(want, keySlot{f.canonical(o.Tree, p, 1), int32(off)})
		} else {
			want = f.appendAnchors(want, search, o.Tree, p, o.Level-1)
		}
		for ; i < len(recs) && recs[i].at == r.at && f.Local[recs[i].ref>>3].Tree == o.Tree; i++ {
			nd.ElementNodes[recs[i].ref>>3][recs[i].ref&7].Nodes = refs[off:len(want):len(want)]
		}
	}
	nd.numbering = f.number(intern(want, refs), 1, 0)
	return nd
}

// otherAxes lists, ascending, the two axes transverse to each axis.
var otherAxes = [3][2]int{{1, 2}, {0, 2}, {0, 1}}

// hangingCorners returns which corners of leaf o hang on an edge and which
// on a face of a coarser neighbour, as bit sets by corner. Seen from o's
// parent P, in which o is child cid, corner cid is a corner of P and corner
// 7-cid its centre: both touch only leaves that, under the full 2:1
// condition, have them as corners. A corner that differs from cid in one
// bit is the midpoint of the edge of P that leaves corner cid along that
// axis, and hangs exactly when a leaf the size of P lies across that edge or
// across one of the two faces of P that meet in it; one that differs in two
// bits is the centre of the face of P normal to the remaining axis, and
// hangs exactly when a leaf the size of P lies across that face. o touches
// those three faces and three edges itself, so its own neighbours — local
// leaves or ghosts — decide.
// An answer is alike for every child on P's face or edge, so fam keeps it
// (18 questions per full family, not 48); leaves come in curve order and a
// refined sibling's descendants are deeper, so one family per level does.
func (f *Forest) hangingCorners(search []octant.Octant, fam *family, o octant.Octant) (onEdge, onFace uint8) {
	if o.Level == 0 {
		return 0, 0
	}
	if p := o.Parent(); fam.parent != p {
		*fam = family{parent: p}
	}
	// across: does a leaf the size of P lie across neighbour n or an image?
	across := func(bit int, n octant.Octant, images func(octant.Octant, int) []octant.Octant, i int) bool {
		if fam.asked>>bit&1 == 0 {
			fam.asked |= 1 << bit
			ns := []octant.Octant{n}
			if !n.Inside() {
				ns = images(o, i)
			}
			for _, n := range ns {
				j := octant.SearchContaining(search, n)
				if j < 0 {
					panic(fmt.Sprintf("core: no leaf covers %v next to %v (ghost layer incomplete?)", n, o))
				}
				if search[j].Level < o.Level-1 {
					panic(fmt.Sprintf("core: %v touches %v (mesh not 2:1 balanced?)", o, search[j]))
				}
				if search[j].Level == o.Level-1 {
					fam.sized |= 1 << bit
				}
			}
		}
		return fam.sized>>bit&1 == 1
	}
	cid := o.ChildID()
	var face, edge [3]bool
	for a := 0; a < 3; a++ {
		// The face of o normal to axis a and the edge along it, on cid's
		// side: the same face and edge of P.
		t := otherAxes[a]
		fc, e := 2*a+cid>>a&1, 4*a+cid>>t[0]&1+cid>>t[1]&1<<1
		face[a] = across(fc, o.FaceNeighbor(fc), f.Conn.FaceNeighbors, fc)
		edge[a] = across(octant.NumFaces+e, o.EdgeNeighbor(e), f.Conn.EdgeNeighbors, e)
	}
	for a := 0; a < 3; a++ {
		if t := otherAxes[a]; edge[a] || face[t[0]] || face[t[1]] {
			onEdge |= 1 << (cid ^ 1<<a)
		}
		if face[a] {
			onFace |= 1 << (cid ^ 7 ^ 1<<a)
		}
	}
	return onEdge, onFace
}

// family memoises hangingCorners' answers for the children of one parent.
type family struct {
	parent       octant.Octant
	asked, sized uint32 // bit f: face f of the parent, bit 6+e: its edge e
}

// radixSort sorts a in place by the 128-bit key hi:lo, American-flag (MSD)
// style: a bucket's digit is the 8 bits ending at the highest bit its keys
// differ in, so digits it agrees on cost no pass; buckets under 32 are
// finished by insertion. Equal keys come out in no particular order.
func radixSort[T any](a []T, key func(*T) (hi, lo uint64)) {
	if len(a) < 32 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0; j-- {
				h, l := key(&a[j])
				if ph, pl := key(&a[j-1]); ph < h || ph == h && pl <= l {
					break
				}
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	h0, l0 := key(&a[0])
	var dh, dl uint64
	for i := range a {
		h, l := key(&a[i])
		dh, dl = dh|(h^h0), dl|(l^l0)
	}
	if dh|dl == 0 {
		return
	}
	sh, sl := 64, max(bits.Len64(dl)-8, 0) // a shift by 64 drops a word
	if dh != 0 {
		sh, sl = max(bits.Len64(dh)-8, 0), 64
	}
	digit := func(t *T) int {
		h, l := key(t)
		return int(uint8(h>>sh | l>>sl))
	}
	// Bucket d is a[start[d]:start[d+1]]; next[d] is its first unplaced slot.
	var start, next [257]int
	for i := range a {
		start[digit(&a[i])+1]++
	}
	for d := 0; d < 256; d++ {
		start[d+1] += start[d]
		next[d] = start[d]
	}
	for d := 0; d < 256; d++ {
		for next[d] < start[d+1] {
			if to := digit(&a[next[d]]); to == d {
				next[d]++
			} else {
				a[next[d]], a[next[to]] = a[next[to]], a[next[d]]
				next[to]++
			}
		}
		radixSort(a[start[d]:start[d+1]], key)
	}
}

// appendAnchors appends the canonical keys of the anchors of the hanging
// point p of tree t — the ends of the edge or the corners of the face of the
// level-`level` leaf it sits on — each asking for the next free slot. The
// axes along which p is no multiple of that leaf's length span the edge or
// face; the anchors lie half a length to either side, low before high,
// lowest axis fastest. On a tree boundary the axes are those of the first
// image of p, in Conn.PointImages order, that such a leaf touches: trees
// meet rotated, and the frame sets the order of the anchors. This is the
// only place that enumerates the images of an element corner and searches
// the cells around them, for the O(N^⅔) hanging points on tree boundaries.
func (f *Forest) appendAnchors(want []keySlot, search []octant.Octant, t int32, p [3]int32, level int8) []keySlot {
	frame := connectivity.TreePoint{Tree: t, X: p[0], Y: p[1], Z: p[2]}
	if !insideTree(frame, 1) {
		frame = f.coarseImage(search, frame, level)
	}
	p = [3]int32{frame.X, frame.Y, frame.Z}
	size := octant.Len(level)
	free := 0
	for a := 0; a < 3; a++ {
		if p[a]&(size-1) != 0 {
			free++
		}
	}
	for bits := 0; bits < 1<<free; bits++ {
		q, bit := p, 0
		for a := 0; a < 3; a++ {
			if p[a]&(size-1) != 0 {
				q[a] += size / 2 * int32(2*(bits>>bit&1)-1)
				bit++
			}
		}
		want = append(want, keySlot{f.canonical(frame.Tree, q, 1), int32(len(want))})
	}
	return want
}

// coarseImage returns the first image of the tree-boundary point p, in
// Conn.PointImages order, that a leaf of the given level touches.
func (f *Forest) coarseImage(search []octant.Octant, p connectivity.TreePoint, level int8) connectivity.TreePoint {
	for _, im := range f.Conn.PointImages(p.Tree, [3]int32{p.X, p.Y, p.Z}) {
		for d := 0; d < 8; d++ {
			cell := octant.Octant{X: im.X - int32(d&1), Y: im.Y - int32(d>>1&1), Z: im.Z - int32(d>>2&1), Level: octant.MaxLevel, Tree: im.Tree}
			if !cell.Inside() {
				continue
			}
			i := octant.SearchContaining(search, cell)
			if i < 0 {
				panic(fmt.Sprintf("core: no leaf covers cell %v next to node %+v (ghost layer incomplete?)", cell, im))
			}
			if search[i].Level == level {
				return im
			}
		}
	}
	panic(fmt.Sprintf("core: no level-%d leaf at hanging node %+v (mesh not 2:1 balanced?)", level, p))
}

// compareTreePoint orders points by (tree, z, y, x), the order of Keys.
func compareTreePoint(a, b connectivity.TreePoint) int {
	switch {
	case a.Tree != b.Tree:
		return cmp.Compare(a.Tree, b.Tree)
	case a.Z != b.Z:
		return cmp.Compare(a.Z, b.Z)
	case a.Y != b.Y:
		return cmp.Compare(a.Y, b.Y)
	}
	return cmp.Compare(a.X, b.X)
}

// mergeLeaves merges two curve-sorted leaf arrays into one, which the
// caller must not write to.
func mergeLeaves(a, b []octant.Octant) []octant.Octant {
	if len(b) == 0 {
		return a
	}
	out := make([]octant.Octant, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if octant.Less(a[i], b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// number gives the sorted distinct keys, points of the lattice refined by
// scale, their owners and globally unique ids, and learns on the way the
// lists that later route shared values through the owners. Messages go
// out under TagNodesReq+tag and TagNodesRep+tag. Collective.
func (f *Forest) number(keys []connectivity.TreePoint, scale int32, tag int) numbering {
	me := f.Comm.Rank()
	nb := numbering{comm: f.Comm, Keys: keys, GlobalID: make([]int64, len(keys)), Owner: make([]int, len(keys))}
	for i, k := range keys {
		nb.Owner[i] = f.pointOwner(k, scale)
		if nb.Owner[i] == me {
			nb.NumOwned++
		}
	}

	// Global ids: owned nodes take consecutive ids in key order.
	nb.OwnedOffset = mpi.ExScan(f.Comm, int64(nb.NumOwned), func(a, b int64) int64 { return a + b })
	nb.NumGlobal = mpi.AllreduceSum(f.Comm, int64(nb.NumOwned))
	next := nb.OwnedOffset
	for i := range keys {
		nb.GlobalID[i] = -1
		if nb.Owner[i] == me {
			nb.GlobalID[i] = next
			next++
		}
	}

	// Resolve remote ids: ask each owner for the ids of the keys we hold.
	req := make(map[int][]connectivity.TreePoint)
	nb.reqLists = make(map[int][]int32)
	for i, k := range keys {
		if r := nb.Owner[i]; r != me {
			req[r] = append(req[r], k)
			nb.reqLists[r] = append(nb.reqLists[r], int32(i))
		}
	}
	inReq := mpi.SparseExchange(f.Comm, req, TagNodesReq+tag)
	rep := make(map[int][]int64)
	nb.serveLists = make(map[int][]int32)
	for r, asked := range inReq {
		ids := make([]int64, len(asked))
		serve := make([]int32, len(asked))
		for j, k := range asked {
			li, ok := slices.BinarySearchFunc(keys, k, compareTreePoint)
			if !ok || nb.Owner[li] != me {
				panic(fmt.Sprintf("core: rank %d asked rank %d for unknown node %+v", r, me, k))
			}
			ids[j], serve[j] = nb.GlobalID[li], int32(li)
		}
		rep[r], nb.serveLists[r] = ids, serve
	}
	inRep := mpi.SparseExchange(f.Comm, rep, TagNodesRep+tag)
	for r, idx := range nb.reqLists {
		ids := inRep[r]
		if len(ids) != len(idx) {
			panic("core: node id reply length mismatch")
		}
		for j, i := range idx {
			nb.GlobalID[i] = ids[j]
		}
	}
	return nb
}

// assemble combines, for every node shared across ranks, the nc interleaved
// values v[node*nc+k] of all referencing ranks with op, leaving every rank
// with the combined values. The reduction is routed through each node's
// owner (requesters send contributions in, the owner reduces
// deterministically by rank order and sends the result back), which handles
// nodes referenced asymmetrically — e.g. hanging-corner anchors a rank
// reads without touching. Messages go out under tag and tag+2.
func (nb *numbering) assemble(nc int, v []float64, tag int, op func(a, b float64) float64) {
	if len(v) != nc*len(nb.Keys) {
		panic("core: assemble vector length mismatch")
	}
	if nb.comm.Size() == 1 {
		return // a lone rank shares no node; skip the empty exchanges
	}
	gather := func(lists map[int][]int32) map[int][]float64 {
		out := make(map[int][]float64, len(lists))
		for r, idx := range lists {
			vals := make([]float64, 0, nc*len(idx))
			for _, i := range idx {
				vals = append(vals, v[int(i)*nc:(int(i)+1)*nc]...)
			}
			out[r] = vals
		}
		return out
	}
	in := mpi.SparseExchange(nb.comm, gather(nb.reqLists), tag)
	ranks := make([]int, 0, len(in))
	for r := range in {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		idx, vals := nb.serveLists[r], in[r]
		if len(vals) != nc*len(idx) {
			panic("core: assemble contribution length mismatch")
		}
		for j, i := range idx {
			for k := 0; k < nc; k++ {
				v[int(i)*nc+k] = op(v[int(i)*nc+k], vals[j*nc+k])
			}
		}
	}
	// Send the reduced values back along the same lists.
	for r, vals := range mpi.SparseExchange(nb.comm, gather(nb.serveLists), tag+2) {
		idx := nb.reqLists[r]
		if len(vals) != nc*len(idx) {
			panic("core: assemble contribution length mismatch")
		}
		for j, i := range idx {
			copy(v[int(i)*nc:(int(i)+1)*nc], vals[j*nc:])
		}
	}
}

func sum(a, b float64) float64 { return a + b }

// AssembleSum adds, for every shared node, the contributions of all
// referencing ranks, leaving every rank with the globally assembled value.
// v is indexed by local node. This is the parallel scatter-gather the
// paper's cG solver uses for unknowns shared between cores (§II.E).
func (nd *Nodes) AssembleSum(v []float64) { nd.assemble(1, v, TagNodesRep+10, sum) }

// AssembleMax combines shared-node values with max instead of addition
// (used for marker fields and error indicators).
func (nd *Nodes) AssembleMax(v []float64) {
	nd.assemble(1, v, TagNodesRep+20, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AssembleSumVec is AssembleSum for vectors with nc interleaved values per
// node: v[node*nc+k].
func (nd *Nodes) AssembleSumVec(nc int, v []float64) { nd.assemble(nc, v, TagNodesRep+30, sum) }
