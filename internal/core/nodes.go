package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// Nodes is the globally unique numbering of the degree-N continuous
// tensor-product unknowns referenced by this rank's elements, produced by
// Forest.Nodes (N = 1) and Forest.LNodes. At degree 1 each element corner
// reads a single independent node or, if it hangs, the 2 (coarse edge) or
// 4 (coarse face) anchor nodes it interpolates with equal weights, as in
// the paper's trilinear continuous Galerkin discretization ("nodal values
// on half-size faces or edges ... are constrained to interpolate
// neighboring unknowns", §II.E). Above degree 1 the forest is conforming
// and no node hangs.
type Nodes struct {
	// ElementNodes holds (N+1)^3 entries per local element, lattice point
	// (i, j, k) of element e at (N+1)^3·e + i + (N+1)·(j + (N+1)·k), so
	// corner c of e at 8e+c at degree 1: the local index of its node if it
	// is independent, or ^h if it lies on hanging point h. The corners that
	// meet at one hanging point share its h.
	ElementNodes []int32
	// The anchors of hanging point h are Anchors[AnchorStart[h]:
	// AnchorStart[h+1]], local node indices in interpolation order.
	AnchorStart []int32
	Anchors     []int32
	// Keys holds the canonical points of the local nodes on the lattice
	// refined by N, ascending; parallel arrays give their global ids and
	// owners.
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

// Corner returns the local nodes corner c of local element e of a degree-1
// numbering reads: its own node, or the anchors of the point it hangs on.
// Each has the weight 1/len. The slice aliases the Nodes: read only.
func (nd *Nodes) Corner(e, c int) []int32 {
	i := 8*e + c
	if h := nd.ElementNodes[i]; h < 0 {
		a, b := nd.AnchorStart[^h], nd.AnchorStart[^h+1]
		return nd.Anchors[a:b:b]
	}
	return nd.ElementNodes[i : i+1 : i+1]
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
	var min Marker
	for i, im := range f.images(key.Tree, [3]int32{key.X, key.Y, key.Z}, scale) {
		if m := markerOf(octant.Octant{X: low(im.X), Y: low(im.Y), Z: low(im.Z), Level: octant.MaxLevel, Tree: im.Tree}); i == 0 || m.Less(min) {
			min = m
		}
	}
	return f.OwnerOfPosition(min)
}

// images returns, in f.imgs, the images of point p of tree t on the
// lattice refined by scale, those of Conn.AppendPointImages with the
// canonical one first, and asks the connectivity nothing for a point
// strictly inside its tree, its own only image.
func (f *Forest) images(t int32, p [3]int32, scale int32) []connectivity.TreePoint {
	if lim := scale * octant.RootLen; p[0] > 0 && p[0] < lim && p[1] > 0 && p[1] < lim && p[2] > 0 && p[2] < lim {
		f.imgs = append(f.imgs[:0], connectivity.TreePoint{Tree: t, X: p[0], Y: p[1], Z: p[2]})
	} else {
		f.imgs = f.Conn.AppendPointImages(f.imgs[:0], t, p, scale)
	}
	return f.imgs
}

// cornerRec is one lattice point of a local or ghost leaf, keyed by its
// canonical point.
type cornerRec struct {
	at   uint64 // canonical point z<<2b | y<<b | x over b bits a coordinate
	tree int32  // canonical tree
	ref  int32  // the record's index as made: leaf j of the local and ghost leaves in curve order, then its points in ElementNodes' order
}

// sortKey is (tree, z, y, x): the order of Keys.
func (r *cornerRec) sortKey() (uint64, uint64) { return uint64(r.tree), r.at }

// Nodes creates the globally unique numbering of the trilinear continuous
// unknowns (paper §II.E), the degree-1 numbering of LNodes. The forest
// must be 2:1 balanced (BalanceFull) and ghost must be the current ghost
// layer. Independent nodes on octree boundaries are canonicalized to the
// lowest participating tree; hanging corners are constrained to the
// corners of the coarse face or edge they sit on. Collective.
func (f *Forest) Nodes(ghost *GhostLayer) *Nodes {
	defer f.span("nodes").End()
	return f.nodes(ghost, 1)
}

// LNodes creates the globally unique numbering of the degree-N continuous
// tensor-product unknowns, 1 ≤ N ≤ 15, which the paper's "high-order
// non-conforming nodal" discretizations number (§II.E). Node identity is
// geometric: lattice point (i, j, k) of element o lies at
// N·corner(o) + (i, j, k)·len(o) of the lattice refined by N, which
// inter-tree transforms map exactly, so equal canonical images are equal
// physical nodes for any rotation between trees. At degree 1 it is Nodes;
// above it the forest must be conforming (every face neighbour the same
// size), and LNodes panics on a point that hangs. ghost must be the
// current ghost layer. Collective.
func (f *Forest) LNodes(ghost *GhostLayer, degree int) *Nodes {
	if degree < 1 || degree > 15 {
		panic("core: LNodes degree must be in [1, 15]")
	}
	defer f.span("lnodes").End()
	return f.nodes(ghost, int32(degree))
}

// nodes numbers the nodes of degree deg for Nodes and LNodes.
//
// Every lattice point of every local and ghost leaf is recorded under its
// canonical point, and one sort groups the records by point, in the order
// of Keys. The leaves tile each tree, so every in-tree cell around every
// image of a point lies in exactly one leaf. Where all those leaves have
// the size of the group's first one, a record exists exactly when a leaf
// has the image on its boundary: per image, 2 leaves along each axis on
// which the point lies off the tree's boundary and on that leaf size's
// grid (always so for a corner, the only point at degree 1), 1 along the
// others. A point hangs iff its group has fewer or more records: at degree
// 1 under the full 2:1 condition its leaves are one level finer than the
// leaf it hangs on, whose corners, its anchors, hang nowhere; above degree
// 1 the forest is not conforming, and nodes panics. A point inside a finer
// leaf's face that a coarser neighbour has no lattice point at always
// hangs, so the rank holding the finer leaf is sure to panic. The ghost
// layer holds every leaf around a local leaf, so the count is exact
// wherever a local leaf has a record.
func (f *Forest) nodes(ghost *GhostLayer, deg int32) *Nodes {
	search, first := mergeLeaves(f.Local, ghost.Octants), ghostsBefore(f.Local, ghost.Octants)
	npe := int((deg + 1) * (deg + 1) * (deg + 1))
	lo, hi := int32(npe*first), int32(npe*(first+len(f.Local))) // the local leaves' refs

	// Leaf coordinates are multiples of the deepest leaf's length, 1<<shift,
	// so a lattice coordinate up to deg·RootLen takes b bits once shifted.
	var deepest int8
	for _, o := range search {
		deepest = max(deepest, o.Level)
	}
	shift, b := octant.MaxLevel-deepest, bits.Len32(uint32(deg)<<deepest)
	if 3*b > 64 {
		panic(fmt.Sprintf("core: degree-%d nodes of a level-%d leaf need %d bits a coordinate, over 64 for a point", deg, deepest, b))
	}
	recs := make([]cornerRec, 0, npe*len(search))
	for _, o := range search {
		h := o.Len()
		x0, y0, z0 := deg*o.X, deg*o.Y, deg*o.Z
		for z := z0; z <= z0+deg*h; z += h {
			for y := y0; y <= y0+deg*h; y += h {
				for x := x0; x <= x0+deg*h; x += h {
					k := f.images(o.Tree, [3]int32{x, y, z}, deg)[0]
					at := uint64(k.Z>>shift)<<(2*b) | uint64(k.Y>>shift)<<b | uint64(k.X>>shift)
					recs = append(recs, cornerRec{at: at, tree: k.Tree, ref: int32(len(recs))})
				}
			}
		}
	}
	radixSortBucketed(recs, (*cornerRec).sortKey)
	point := func(r cornerRec) connectivity.TreePoint {
		return connectivity.TreePoint{Tree: r.tree, X: int32(r.at&(1<<b-1)) << shift, Y: int32(r.at>>b&(1<<b-1)) << shift, Z: int32(r.at>>(2*b)) << shift}
	}

	// One entry per point: its key, and in ref its state — a node (0) or
	// hanging if a local leaf has a record there, else none unless it
	// anchors a hanging point; a node's state later becomes its key index
	// and a hanging point's ^h. groupOf maps every record to its point.
	const none, hangs = math.MinInt32, math.MinInt32 + 1
	points := 0
	for i := range recs {
		if i == 0 || recs[i].at != recs[i-1].at || recs[i].tree != recs[i-1].tree {
			points++
		}
	}
	groups, groupOf := make([]cornerRec, 0, points), make([]int32, len(recs))
	hanging, anchors, numKeys := 0, 0, 0
	for i := 0; i < len(recs); {
		g, end, local := recs[i], i, false
		for ; end < len(recs) && recs[end].at == g.at && recs[end].tree == g.tree; end++ {
			groupOf[recs[end].ref] = int32(len(groups))
			local = local || recs[end].ref >= lo && recs[end].ref < hi
		}
		if g.ref = none; local {
			k, cells, size := point(g), 0, int32(1)
			if deg > 1 {
				size = deg * search[int(recs[i].ref)/npe].Len()
			}
			for _, im := range f.images(k.Tree, [3]int32{k.X, k.Y, k.Z}, deg) {
				c := 1
				for _, v := range [3]int32{im.X, im.Y, im.Z} {
					if v != 0 && v != deg*octant.RootLen && (deg == 1 || v%size == 0) {
						c *= 2
					}
				}
				cells += c
			}
			switch {
			case end-i == cells:
				g.ref = 0
				numKeys++
			case deg > 1:
				panic(fmt.Sprintf("core: degree-%d nodes need a conforming forest; %+v hangs at %v (or the ghost layer is incomplete)", deg, k, search[int(firstRef(recs[i:end]))/npe]))
			default: // 2 or 4 anchors, by the axes the point is free on
				g.ref = hangs
				hanging++
				n, size := 1, octant.Len(search[firstRef(recs[i:end])>>3].Level-1)
				for _, v := range [3]int32{k.X, k.Y, k.Z} {
					if v&(size-1) != 0 {
						n *= 2
					}
				}
				anchors += n
			}
		}
		groups = append(groups, g)
		i = end
	}

	// Number the hanging points with a local record in key order; a
	// hanging point's anchors, which first hold point indices, are corners
	// of the leaf it hangs on.
	nd := &Nodes{AnchorStart: make([]int32, 1, hanging+1), Anchors: make([]int32, 0, anchors)}
	for g, i := 0, 0; i < len(recs); g++ {
		end := i
		for end < len(recs) && recs[end].at == recs[i].at && recs[end].tree == recs[i].tree {
			end++
		}
		if groups[g].ref == hangs {
			groups[g].ref = ^int32(len(nd.AnchorStart) - 1)
			k := point(groups[g])
			j, corners, n := hangsOn(recs[i:end], f.images(k.Tree, [3]int32{k.X, k.Y, k.Z}, 1), search)
			for _, c := range corners[:n] {
				ga := groupOf[j*8+c]
				if r := groups[ga].ref; r < 0 && r != none {
					panic(fmt.Sprintf("core: anchor %+v of %+v hangs (mesh not 2:1 balanced?)", point(groups[ga]), k))
				}
				if groups[ga].ref == none {
					groups[ga].ref = 0
					numKeys++
				}
				nd.Anchors = append(nd.Anchors, ga)
			}
			nd.AnchorStart = append(nd.AnchorStart, int32(len(nd.Anchors)))
		}
		i = end
	}
	keys := make([]connectivity.TreePoint, 0, numKeys)
	for g, r := range groups {
		if r.ref == 0 {
			groups[g].ref = int32(len(keys))
			keys = append(keys, point(r))
		}
	}

	// groupOf becomes the element entries in place: a node's index or ^h.
	for i, g := range nd.Anchors {
		nd.Anchors[i] = groups[g].ref
	}
	local := groupOf[lo:hi]
	for i, g := range local {
		local[i] = groups[g].ref
	}
	if nd.ElementNodes = local; len(local) < len(groupOf) {
		nd.ElementNodes = slices.Clone(local) // drop the ghosts' records
	}
	f.number(nd, keys, deg)
	return nd
}

// firstRef returns the smallest ref in a group of records, the leaf corner
// of the group that comes first in curve order, so that which leaf the
// group's diagnostics name does not depend on how the sort ordered it.
func firstRef(group []cornerRec) int32 {
	r := group[0].ref
	for _, g := range group[1:] {
		r = min(r, g.ref)
	}
	return r
}

// hangsOn returns the leaf, as an index into search, that the hanging
// point of a group of corner records hangs on, and the n corners of it
// that anchor the point. Let o be the group's leaf that comes first in
// curve order; under 2:1 balance every leaf of the group has its level.
// The leaf holds the first cell around the images imgs of the point, in image
// order, at whose image no record of the point's group lies: a cell whose
// leaf does not have the point as a corner. That leaf must be one level
// coarser than o; no leaf means the ghost layer lacks one, another level a
// forest that is not 2:1 balanced. The anchors are the ends of the edge or
// the corners of the face the point sits on, low before high along the
// free axes of the cell's image, lowest axis fastest: trees meet rotated,
// and the frame sets their order.
func hangsOn(group []cornerRec, imgs []connectivity.TreePoint, search []octant.Octant) (j int, corners [4]int, n int) {
	o := search[firstRef(group)>>3]
	for _, im := range imgs {
		for d := 0; d < 8; d++ {
			cell := octant.Octant{X: im.X - int32(d&1), Y: im.Y - int32(d>>1&1), Z: im.Z - int32(d>>2&1), Level: octant.MaxLevel, Tree: im.Tree}
			if !cell.Inside() || slices.ContainsFunc(group, func(r cornerRec) bool {
				q := search[r.ref>>3]
				x, y, z := q.Corner(d)
				return int(r.ref&7) == d && q.Tree == im.Tree && x == im.X && y == im.Y && z == im.Z
			}) {
				continue
			}
			if j = octant.SearchContaining(search, cell); j < 0 {
				panic(fmt.Sprintf("core: no leaf covers cell %v next to %v (ghost layer incomplete?)", cell, o))
			}
			c := search[j]
			if c.Level != o.Level-1 {
				panic(fmt.Sprintf("core: %v touches %v (mesh not 2:1 balanced?)", o, c))
			}
			var free [3]int
			for a, v := range [3]int32{im.X - c.X, im.Y - c.Y, im.Z - c.Z} {
				switch v {
				case 0:
				case c.Len():
					corners[0] |= 1 << a
				default:
					free[n] = a
					n++
				}
			}
			for m := 1; m < 1<<n; m++ {
				corners[m] = corners[0]
				for k, a := range free[:n] {
					corners[m] |= m >> k & 1 << a
				}
			}
			return j, corners, 1 << n
		}
	}
	panic("core: a hanging point has every cell around it covered")
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

// keyWidth returns how many bits of the 128-bit keys hi:lo of a lie at or
// below the highest bit in which two of them differ, ll of them from lo:
// the keys' order is that of those bits read as one number whose bit s is
// bit s of lo below ll and bit s-ll of hi above (see keyBits).
func keyWidth[T any](a []T, key func(*T) (hi, lo uint64)) (width, ll int) {
	if len(a) == 0 {
		return 0, 0
	}
	h0, l0 := key(&a[0])
	var dh, dl uint64
	for i := range a {
		h, l := key(&a[i])
		dh, dl = dh|(h^h0), dl|(l^l0)
	}
	ll = bits.Len64(dl)
	return ll + bits.Len64(dh), ll
}

// keyBits returns bits [s, e) of the key hi:lo in keyWidth's numbering.
func keyBits(h, l uint64, ll, s, e int) int {
	if s < ll {
		h = l&(1<<ll-1)>>s | h<<(ll-s)
	} else {
		h >>= s - ll
	}
	return int(h & (1<<(e-s) - 1))
}

// radixSortStable sorts a by the 128-bit key hi:lo through tmp, of the same
// length, and returns the sorted slice and the other one, which is a or
// tmp. It is an LSD radix sort, so equal keys keep their order: the bits
// up to the highest the keys differ in are split into equal digits of at
// most 11 bits, one counting pass each.
func radixSortStable[T any](a, tmp []T, key func(*T) (hi, lo uint64)) (sorted, spare []T) {
	width, ll := keyWidth(a, key)
	passes := (width + 10) / 11
	var counts [1<<11 + 1]int
	for p := 0; p < passes; p++ {
		s, e := width*p/passes, width*(p+1)/passes
		start := counts[:1<<(e-s)+1]
		clear(start)
		for i := range a {
			h, l := key(&a[i])
			start[keyBits(h, l, ll, s, e)+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for i := range a {
			h, l := key(&a[i])
			d := keyBits(h, l, ll, s, e)
			tmp[start[d]] = a[i]
			start[d]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

// radixSortBucketed sorts a by the 128-bit key hi:lo in little more memory
// than a: one in-place American-flag pass on the top (at most) 6 of the
// bits up to the highest the keys differ in splits a into buckets, and
// radixSortStable finishes each bucket through one scratch array as long
// as the largest, on the bits that bucket's own keys differ in. Equal
// keys come out in no particular order.
func radixSortBucketed[T any](a []T, key func(*T) (hi, lo uint64)) {
	width, ll := keyWidth(a, key)
	if width == 0 {
		return
	}
	s := max(width-6, 0)
	digit := func(t *T) int {
		h, l := key(t)
		return keyBits(h, l, ll, s, width)
	}
	// Bucket d is a[start[d]:start[d+1]]; next[d] is its first unplaced slot.
	var start, next [1<<6 + 1]int
	for i := range a {
		start[digit(&a[i])+1]++
	}
	largest := 0
	for d := 0; d < 1<<(width-s); d++ {
		largest = max(largest, start[d+1])
		start[d+1] += start[d]
		next[d] = start[d]
	}
	for d := 0; d < 1<<(width-s); d++ {
		for next[d] < start[d+1] {
			if to := digit(&a[next[d]]); to == d {
				next[d]++
			} else {
				a[next[d]], a[next[to]] = a[next[to]], a[next[d]]
				next[to]++
			}
		}
	}
	tmp := make([]T, largest)
	for d := 0; d < 1<<(width-s); d++ {
		b := a[start[d]:start[d+1]]
		if sorted, _ := radixSortStable(b, tmp[:len(b)], key); len(b) > 0 && &sorted[0] != &b[0] {
			copy(b, sorted)
		}
	}
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

// mergeLeaves returns, in curve order, the local leaves with the ghosts,
// which lie off the local segment. The caller must not write to it.
func mergeLeaves(local, ghosts []octant.Octant) []octant.Octant {
	if len(ghosts) == 0 {
		return local
	}
	i := ghostsBefore(local, ghosts)
	return slices.Concat(ghosts[:i], local, ghosts[i:])
}

// ghostsBefore counts the ghosts that precede the local segment.
func ghostsBefore(local, ghosts []octant.Octant) int {
	return sort.Search(len(ghosts), func(i int) bool { return len(local) > 0 && octant.Less(local[0], ghosts[i]) })
}

// number gives nd the sorted distinct keys, points of the lattice refined
// by scale, their owners and globally unique ids, and learns on the way the
// lists that later route shared values through the owners. Messages go out
// under TagNodesReq and TagNodesRep. Collective.
func (f *Forest) number(nd *Nodes, keys []connectivity.TreePoint, scale int32) {
	me := f.Comm.Rank()
	nd.comm, nd.Keys, nd.GlobalID, nd.Owner = f.Comm, keys, make([]int64, len(keys)), make([]int, len(keys))
	for i, k := range keys {
		nd.Owner[i] = f.pointOwner(k, scale)
		if nd.Owner[i] == me {
			nd.NumOwned++
		}
	}

	// Global ids: owned nodes take consecutive ids in key order.
	nd.OwnedOffset = mpi.ExScan(f.Comm, int64(nd.NumOwned), func(a, b int64) int64 { return a + b })
	nd.NumGlobal = mpi.AllreduceSum(f.Comm, int64(nd.NumOwned))
	next := nd.OwnedOffset
	for i := range keys {
		nd.GlobalID[i] = -1
		if nd.Owner[i] == me {
			nd.GlobalID[i] = next
			next++
		}
	}

	// Resolve remote ids: ask each owner for the ids of the keys we hold.
	req := make(map[int][]connectivity.TreePoint)
	nd.reqLists = make(map[int][]int32)
	for i, k := range keys {
		if r := nd.Owner[i]; r != me {
			req[r] = append(req[r], k)
			nd.reqLists[r] = append(nd.reqLists[r], int32(i))
		}
	}
	inReq := mpi.SparseExchange(f.Comm, req, TagNodesReq)
	rep := make(map[int][]int64)
	nd.serveLists = make(map[int][]int32)
	for r, asked := range inReq {
		ids := make([]int64, len(asked))
		serve := make([]int32, len(asked))
		for j, k := range asked {
			li, ok := slices.BinarySearchFunc(keys, k, compareTreePoint)
			if !ok || nd.Owner[li] != me {
				panic(fmt.Sprintf("core: rank %d asked rank %d for unknown node %+v", r, me, k))
			}
			ids[j], serve[j] = nd.GlobalID[li], int32(li)
		}
		rep[r], nd.serveLists[r] = ids, serve
	}
	inRep := mpi.SparseExchange(f.Comm, rep, TagNodesRep)
	for r, idx := range nd.reqLists {
		ids := inRep[r]
		if len(ids) != len(idx) {
			panic("core: node id reply length mismatch")
		}
		for j, i := range idx {
			nd.GlobalID[i] = ids[j]
		}
	}
}

// assemble combines, for every node shared across ranks, the nc interleaved
// values v[node*nc+k] of all referencing ranks with op, leaving every rank
// with the combined values. The reduction is routed through each node's
// owner (requesters send contributions in, the owner reduces
// deterministically by rank order and sends the result back), which handles
// nodes referenced asymmetrically — e.g. hanging-corner anchors a rank
// reads without touching. Messages go out under tag and tag+2.
func (nd *Nodes) assemble(nc int, v []float64, tag int, op func(a, b float64) float64) {
	if len(v) != nc*len(nd.Keys) {
		panic("core: assemble vector length mismatch")
	}
	if nd.comm.Size() == 1 {
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
	in := mpi.SparseExchange(nd.comm, gather(nd.reqLists), tag)
	ranks := make([]int, 0, len(in))
	for r := range in {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		idx, vals := nd.serveLists[r], in[r]
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
	for r, vals := range mpi.SparseExchange(nd.comm, gather(nd.serveLists), tag+2) {
		idx := nd.reqLists[r]
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

// AssembleSumVec is AssembleSum for vectors with nc interleaved values per
// node: v[node*nc+k].
func (nd *Nodes) AssembleSumVec(nc int, v []float64) { nd.assemble(nc, v, TagNodesRep+30, sum) }
