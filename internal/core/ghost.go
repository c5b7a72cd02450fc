package core

import (
	"sort"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// GhostLayer holds one layer of non-local leaves touching this rank's
// partition from the outside (paper §II.C), plus the mirror information
// needed to push local data to the ranks that see it as ghost.
type GhostLayer struct {
	// Octants are the remote leaves adjacent to this rank's leaves, in
	// ascending curve order.
	Octants []octant.Octant
	// Owner[i] is the rank owning Octants[i].
	Owner []int
	// Mirrors lists the indices of local leaves that appear in at least one
	// other rank's ghost layer, ascending.
	Mirrors []int
	// MirrorRanks[k] lists the ranks that hold local leaf Mirrors[k] as a
	// ghost, ascending.
	MirrorRanks [][]int
}

// NumGhosts returns the number of ghost octants.
func (g *GhostLayer) NumGhosts() int { return len(g.Octants) }

// Ghost collects one layer of non-local leaves adjacent (through faces,
// edges, and corners, including inter-tree connections) to the local curve
// segment. Every local leaf whose same-size neighbourhood overlaps a remote
// segment is shipped to those ranks; symmetry of the neighbourhood relation
// makes the received set exactly the adjacent remote leaves.
//
// Candidate leaves are enumerated by the recursive top-down boundary
// traversal (arXiv:1406.0089): subtrees interior to the local segment are
// pruned wholesale against the partition markers, so the per-leaf 26-image
// owner scan runs over the partition boundary only — not all N local
// leaves — and each boundary leaf is visited exactly once in curve order,
// so the mirror and send lists are built sorted without any per-leaf set
// churn.
func (f *Forest) Ghost() *GhostLayer {
	defer f.span("ghost").End()
	me := f.Comm.Rank()
	msgs0 := f.Comm.TagStat(TagGhost).MsgsSent
	g := &GhostLayer{}
	send := make(map[int][]octant.Octant) // dest rank -> mirror leaves, curve order
	var dests []int
	var nbrs []octant.Octant
	f.forEachBoundaryLeaf(func(i int, o octant.Octant) {
		dests = dests[:0]
		nbrs = f.Conn.AppendNeighbors(nbrs[:0], o, connectivity.FacesEdgesCorners)
		for _, n := range nbrs {
			lo, hi := f.OwnersOfRange(n)
			for r := lo; r <= hi; r++ {
				if r == me {
					continue
				}
				seen := false
				for _, d := range dests {
					if d == r {
						seen = true
						break
					}
				}
				if !seen {
					dests = append(dests, r)
				}
			}
		}
		if len(dests) == 0 {
			return
		}
		sort.Ints(dests)
		g.Mirrors = append(g.Mirrors, i)
		g.MirrorRanks = append(g.MirrorRanks, append([]int(nil), dests...))
		for _, r := range dests {
			send[r] = append(send[r], o)
		}
	})
	in := mpi.SparseExchange(f.Comm, send, TagGhost)

	type ownedOct struct {
		o     octant.Octant
		owner int
	}
	var recv []ownedOct
	for src, list := range in {
		if src == me {
			continue
		}
		for _, o := range list {
			recv = append(recv, ownedOct{o, src})
		}
	}
	sort.Slice(recv, func(i, j int) bool { return octant.Less(recv[i].o, recv[j].o) })
	for _, ro := range recv {
		g.Octants = append(g.Octants, ro.o)
		g.Owner = append(g.Owner, ro.owner)
	}
	f.addCounter("ghost_msgs", f.Comm.TagStat(TagGhost).MsgsSent-msgs0)
	return g
}

// FindGhost returns the index of the ghost leaf containing q (equal or
// ancestor), or -1.
func (g *GhostLayer) FindGhost(q octant.Octant) int {
	i := octant.SearchContaining(g.Octants, q)
	if i >= 0 && !g.Octants[i].Contains(q) {
		return -1
	}
	return i
}

// FindLeafOrGhost locates the leaf containing q in the local storage or the
// ghost layer. It returns the leaf and where it was found:
// local index >= 0 with ghost == false, or ghost index with ghost == true.
// found is false if q lies outside both (e.g. past a domain boundary).
func (f *Forest) FindLeafOrGhost(g *GhostLayer, q octant.Octant) (leaf octant.Octant, idx int, ghost, found bool) {
	if i := f.FindLeaf(q); i >= 0 {
		return f.Local[i], i, false, true
	}
	if g != nil {
		if i := g.FindGhost(q); i >= 0 {
			return g.Octants[i], i, true, true
		}
	}
	return octant.Octant{}, -1, false, false
}
