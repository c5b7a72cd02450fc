package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// This file preserves, verbatim, the Nodes that searched the eight
// max-level cells around every image of every element corner
// (referenceClassifyCorner, once per corner, through maps and per-corner
// slices), with the owner rule and key order it used. It exists only as a
// test oracle: Forest.Nodes must number the same nodes the same way — keys,
// global ids, owners, counts, element references with their anchor order,
// and the owner-routed request and serve lists — which
// TestNodesMatchesReference compares field by field. The departures: the
// result's comm and Keys are assigned, since Nodes now embeds them, and
// the element references are packed into Nodes' flat corner layout with a
// hanging point of its own for every hanging corner (Corner reads them).

// referenceTouchingCells returns the max-level cells adjacent to point p of tree t,
// enumerated across every inter-tree image of the point and deduplicated.
// Every leaf touching the physical node contains at least one of these
// cells, and every rank computes the same set from the connectivity alone.
func referenceTouchingCells(conn *connectivity.Conn, t int32, p [3]int32) []octant.Octant {
	images := conn.AppendPointImages(nil, t, p, 1)
	var cells []octant.Octant
	for _, im := range images {
		for d := 0; d < 8; d++ {
			q := [3]int32{im.X, im.Y, im.Z}
			ok := true
			for a := 0; a < 3; a++ {
				if d>>a&1 != 0 {
					q[a]--
				}
				if q[a] < 0 || q[a] >= octant.RootLen {
					ok = false
					break
				}
			}
			if ok {
				cells = append(cells, octant.Octant{X: q[0], Y: q[1], Z: q[2], Level: octant.MaxLevel, Tree: im.Tree})
			}
		}
	}
	cells = linearize(cells)
	return cells
}

// linearize sorts the octants and removes duplicates and any octant that is
// an ancestor of another, keeping the finest, so the result is a valid
// (possibly incomplete) linear octree.
func linearize(o []octant.Octant) []octant.Octant {
	slices.SortFunc(o, octant.Compare)
	out := o[:0]
	for _, q := range o {
		for len(out) > 0 {
			last := out[len(out)-1]
			if last == q || last.IsAncestorOf(q) {
				out = out[:len(out)-1]
				continue
			}
			break
		}
		out = append(out, q)
	}
	// The pass above removes ancestors that precede descendants; in curve
	// order an ancestor always precedes its descendants, but a duplicate of
	// the *descendant* could also precede (equal) — handled by == above.
	// Re-check: keep finest when one contains the next.
	final := out[:0]
	for _, q := range out {
		if len(final) > 0 && final[len(final)-1].IsAncestorOf(q) {
			final = final[:len(final)-1]
		}
		final = append(final, q)
	}
	return final
}

func TestLinearize(t *testing.T) {
	o := octant.Root(0)
	in := []octant.Octant{
		o.Child(0), o, o.Child(0).Child(3), o.Child(0).Child(3), o.Child(7),
	}
	out := linearize(in)
	want := []octant.Octant{o.Child(0).Child(3), o.Child(7)}
	if !slices.Equal(out, want) {
		t.Fatalf("linearize = %v, want %v", out, want)
	}
}

// referenceNodeOwner determines, from shared meta-data only, the rank owning the
// node at canonical point key: the owner of the curve-smallest cell
// touching the node. Every rank referencing the node computes the same
// owner, and the owner always references the node itself (the leaf
// containing the minimal cell has the node as one of its corners).
func (f *Forest) referenceNodeOwner(key connectivity.TreePoint) int {
	// Interior fast path: a node strictly inside its tree has a single
	// image and all eight adjacent max-level cells exist, so the
	// curve-smallest cell falls out of one 8-way key comparison — no image
	// enumeration, no cell linearization, no allocation. Combined with the
	// own-segment fast path of OwnerOfPosition, owner lookup for the
	// subdomain interior is O(1); only nodes on tree or partition
	// boundaries pay the general scan.
	if key.X > 0 && key.X < octant.RootLen &&
		key.Y > 0 && key.Y < octant.RootLen &&
		key.Z > 0 && key.Z < octant.RootLen {
		var minKey octant.Key
		for d := 0; d < 8; d++ {
			cell := octant.Octant{
				X: key.X - int32(d&1), Y: key.Y - int32(d>>1&1), Z: key.Z - int32(d>>2&1),
				Level: octant.MaxLevel, Tree: key.Tree,
			}
			if k := cell.MortonKey(); d == 0 || k < minKey {
				minKey = k
			}
		}
		return f.OwnerOfPosition(Marker{Tree: key.Tree, Key: minKey})
	}
	cells := referenceTouchingCells(f.Conn, key.Tree, [3]int32{key.X, key.Y, key.Z})
	minMarker := Marker{Tree: f.Conn.NumTrees()}
	for _, cell := range cells {
		if m := markerOf(cell); m.Less(minMarker) {
			minMarker = m
		}
	}
	return f.OwnerOfPosition(minMarker)
}

// referenceNodes creates the globally unique numbering of the trilinear continuous
// unknowns (paper §II.E). The forest must be 2:1 balanced (BalanceFull) and
// ghost must be the current ghost layer. Independent nodes on octree
// boundaries are canonicalized to the lowest participating tree; hanging
// corners are constrained to the corners of the coarse face or edge they
// sit on.
func (f *Forest) referenceNodes(ghost *GhostLayer) *Nodes {
	search := mergeLeaves(f.Local, ghost.Octants)

	type cornerInfo struct {
		keys []connectivity.TreePoint // 1 (independent) or 2/4 anchors
	}
	corners := make([][8]cornerInfo, len(f.Local))
	keySet := make(map[connectivity.TreePoint]int32)
	var keys []connectivity.TreePoint
	intern := func(k connectivity.TreePoint) {
		if _, ok := keySet[k]; !ok {
			keySet[k] = -1
			keys = append(keys, k)
		}
	}

	for ei, o := range f.Local {
		for c := 0; c < 8; c++ {
			p := cornerPoint(o, c)
			info := f.referenceClassifyCorner(search, o.Tree, p)
			for _, k := range info {
				intern(k)
			}
			corners[ei][c] = cornerInfo{keys: info}
		}
	}

	// Deterministic local node order.
	sort.Slice(keys, func(i, j int) bool { return referenceLessTreePoint(keys[i], keys[j]) })
	for i, k := range keys {
		keySet[k] = int32(i)
	}

	nd := &Nodes{}
	nd.comm, nd.Keys = f.Comm, keys
	nd.GlobalID = make([]int64, len(keys))
	nd.Owner = make([]int, len(keys))
	for i, k := range keys {
		nd.Owner[i] = f.referenceNodeOwner(k)
		if nd.Owner[i] == f.Comm.Rank() {
			nd.NumOwned++
		}
	}

	// Global ids: owned nodes take consecutive ids in key order.
	nd.OwnedOffset = mpi.ExScan(f.Comm, int64(nd.NumOwned), func(a, b int64) int64 { return a + b })
	nd.NumGlobal = mpi.AllreduceSum(f.Comm, int64(nd.NumOwned))
	next := nd.OwnedOffset
	for i := range keys {
		if nd.Owner[i] == f.Comm.Rank() {
			nd.GlobalID[i] = next
			next++
		} else {
			nd.GlobalID[i] = -1
		}
	}

	// Resolve remote ids: ask each owner for the ids of the keys we hold.
	// The same exchange establishes the owner-routed communication lists
	// used by AssembleSum.
	req := make(map[int][]connectivity.TreePoint)
	nd.reqLists = make(map[int][]int32)
	for i, k := range keys {
		if r := nd.Owner[i]; r != f.Comm.Rank() {
			req[r] = append(req[r], k)
			nd.reqLists[r] = append(nd.reqLists[r], int32(i))
		}
	}
	inReq := mpi.SparseExchange(f.Comm, req, TagNodesReq)
	rep := make(map[int][]int64)
	nd.serveLists = make(map[int][]int32)
	var repRanks []int
	for r := range inReq {
		repRanks = append(repRanks, r)
	}
	sort.Ints(repRanks)
	for _, r := range repRanks {
		ids := make([]int64, len(inReq[r]))
		serve := make([]int32, len(inReq[r]))
		for j, k := range inReq[r] {
			li, ok := keySet[k]
			if !ok || nd.GlobalID[li] < 0 {
				panic(fmt.Sprintf("core: rank %d asked rank %d for unknown node %+v", r, f.Comm.Rank(), k))
			}
			ids[j] = nd.GlobalID[li]
			serve[j] = li
		}
		rep[r] = ids
		nd.serveLists[r] = serve
	}
	inRep := mpi.SparseExchange(f.Comm, rep, TagNodesRep)
	for r, ks := range req {
		ids := inRep[r]
		if len(ids) != len(ks) {
			panic("core: node id reply length mismatch")
		}
		for j, k := range ks {
			nd.GlobalID[keySet[k]] = ids[j]
		}
	}

	// Element corner references.
	nd.ElementNodes = make([]int32, 8*len(f.Local))
	nd.AnchorStart = []int32{0}
	for ei := range f.Local {
		for c := 0; c < 8; c++ {
			ks := corners[ei][c].keys
			if len(ks) == 1 {
				nd.ElementNodes[8*ei+c] = keySet[ks[0]]
				continue
			}
			nd.ElementNodes[8*ei+c] = ^int32(len(nd.AnchorStart) - 1)
			for _, k := range ks {
				nd.Anchors = append(nd.Anchors, keySet[k])
			}
			nd.AnchorStart = append(nd.AnchorStart, int32(len(nd.Anchors)))
		}
	}

	return nd
}

// referenceClassifyCorner determines the independent node keys a corner point reads:
// its own canonical key if the node is independent, or the canonical keys
// of the coarse anchors if it hangs. search is the merged local+ghost leaf
// array.
func (f *Forest) referenceClassifyCorner(search []octant.Octant, t int32, p [3]int32) []connectivity.TreePoint {
	images := f.Conn.AppendPointImages(nil, t, p, 1)
	var worst octant.Octant // coarsest touching leaf that lacks p as corner
	worstSet := false
	var worstImage connectivity.TreePoint
	for _, im := range images {
		for d := 0; d < 8; d++ {
			q := [3]int32{im.X, im.Y, im.Z}
			ok := true
			for a := 0; a < 3; a++ {
				if d>>a&1 != 0 {
					q[a]--
				}
				if q[a] < 0 || q[a] >= octant.RootLen {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cell := octant.Octant{X: q[0], Y: q[1], Z: q[2], Level: octant.MaxLevel, Tree: im.Tree}
			li := octant.SearchContaining(search, cell)
			if li < 0 || !search[li].Contains(cell) {
				panic(fmt.Sprintf("core: no leaf covers cell %v next to node %+v (ghost layer incomplete?)", cell, im))
			}
			leaf := search[li]
			if !referencePointIsCorner(leaf, [3]int32{im.X, im.Y, im.Z}) {
				if !worstSet || leaf.Level < worst.Level {
					worst = leaf
					worstSet = true
					worstImage = im
				}
			}
		}
	}
	if !worstSet {
		return images[:1]
	}
	// Hanging: p sits strictly inside a face or edge of worst. The anchors
	// are the corners of that entity.
	h := worst.Len()
	base := [3]int32{worst.X, worst.Y, worst.Z}
	pp := [3]int32{worstImage.X, worstImage.Y, worstImage.Z}
	var strict []int
	for a := 0; a < 3; a++ {
		d := pp[a] - base[a]
		if d > 0 && d < h {
			strict = append(strict, a)
		}
	}
	if len(strict) == 0 || len(strict) > 2 {
		panic(fmt.Sprintf("core: node %+v hangs inside volume of %v (mesh not 2:1 balanced?)", worstImage, worst))
	}
	var anchors []connectivity.TreePoint
	for bits := 0; bits < 1<<len(strict); bits++ {
		q := pp
		for bi, a := range strict {
			if bits>>bi&1 == 0 {
				q[a] = base[a]
			} else {
				q[a] = base[a] + h
			}
		}
		anchors = append(anchors, f.Conn.AppendPointImages(nil, worst.Tree, q, 1)[0])
	}
	return anchors
}

func referencePointIsCorner(o octant.Octant, p [3]int32) bool {
	h := o.Len()
	for a, v := range [3]int32{o.X, o.Y, o.Z} {
		if p[a] != v && p[a] != v+h {
			return false
		}
	}
	return true
}

func referenceLessTreePoint(a, b connectivity.TreePoint) bool {
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

// cornerPoint returns the lattice coordinates of corner c of leaf o.
func cornerPoint(o octant.Octant, c int) [3]int32 {
	x, y, z := o.Corner(c)
	return [3]int32{x, y, z}
}
