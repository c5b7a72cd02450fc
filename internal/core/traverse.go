package core

import (
	"sort"

	"repro/internal/connectivity"
	"repro/internal/octant"
)

// forEachBoundaryLeaf visits, in ascending index order, every local leaf
// whose same-size neighbourhood could overlap a remote rank's curve
// segment. It is the recursive top-down traversal of arXiv:1406.0089: the
// walk descends each locally present tree from its root and prunes any
// subtree s that lies entirely in the local segment together with all 26
// of its same-size neighbour regions. No leaf inside such a subtree can
// touch a remote segment, because a descendant leaf's neighbour images are
// contained in s and in the images of s's neighbours (the connectivity
// transforms are containment-preserving). Ghost and the first Balance
// exchange round both ride this walk, so their per-leaf owner scans run
// over the partition boundary only instead of all N local leaves.
func (f *Forest) forEachBoundaryLeaf(visit func(i int, o octant.Octant)) {
	var nbrs []octant.Octant
	lo := 0
	for lo < len(f.Local) {
		t := f.Local[lo].Tree
		hi := lo
		for hi < len(f.Local) && f.Local[hi].Tree == t {
			hi++
		}
		f.boundaryWalk(octant.Root(t), lo, hi, &nbrs, visit)
		lo = hi
	}
}

// boundaryWalk recurses into subtree s, whose descendant leaves are
// exactly Local[lo:hi). Child ranges are split by binary search on the
// curve, so the cost is O(visited · (26 + log N)) with the visited set
// confined to boundary-overlapping subtrees.
func (f *Forest) boundaryWalk(s octant.Octant, lo, hi int, nbrs *[]octant.Octant, visit func(int, octant.Octant)) {
	if lo >= hi {
		return
	}
	if f.ownedHereOnly(s) {
		interior := true
		*nbrs = f.Conn.AppendNeighbors((*nbrs)[:0], s, connectivity.FacesEdgesCorners)
		for _, n := range *nbrs {
			if !f.ownedHereOnly(n) {
				interior = false
				break
			}
		}
		if interior {
			return
		}
	}
	if hi-lo == 1 && f.Local[lo] == s {
		visit(lo, s)
		return
	}
	for i := 0; i < octant.NumChildren; i++ {
		c := s.Child(i)
		last := c.LastDescendant(octant.MaxLevel)
		mid := lo + sort.Search(hi-lo, func(k int) bool {
			return octant.Compare(f.Local[lo+k], last) > 0
		})
		f.boundaryWalk(c, lo, mid, nbrs, visit)
		lo = mid
	}
}
