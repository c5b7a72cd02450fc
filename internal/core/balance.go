package core

import (
	"slices"

	"repro/internal/mpi"
	"repro/internal/octant"
)

// BalanceKind selects which neighbour relations the 2:1 balance constraint
// covers.
type BalanceKind int

const (
	// BalanceFace balances across faces only.
	BalanceFace BalanceKind = iota
	// BalanceFaceEdge balances across faces and edges.
	BalanceFaceEdge
	// BalanceFull balances across faces, edges, and corners (the paper's
	// default: "2:1 size relations ... respected both for octants within the
	// same octree and for octants that belong to different octrees").
	BalanceFull
)

// demand requires every leaf overlapping region O to have at least level
// MinLevel. Demands are derived from leaves' same-size neighbour regions
// and routed to the owners of those regions.
type demand struct {
	O        octant.Octant
	MinLevel int8
}

// Balance enforces at most 2:1 size relations between neighbouring leaves,
// including across inter-tree faces, edges, and corners with arbitrary
// relative rotations, by local refinement where necessary.
//
// The implementation follows the recursive scheme of arXiv:1406.0089,
// replacing the old global ripple (one full demand collect → route →
// refine → AllreduceOr cycle per round, with an unbounded round count).
// Phase 1 drives the local subtree balance to a communication-free
// fixpoint: demands whose regions overlap the local curve segment are
// applied immediately, and each iteration reseeds only from the leaves it
// just created. It starts from every local leaf, or — when the forest
// knows it was balanced before the last Refine and Coarsen calls — from
// the leaves those calls changed and their finer neighbours
// (balanceSeeds). Phase 2 runs a small, bounded number of inter-rank demand
// exchanges: the first round derives candidate demands from the partition
// boundary alone (the recursive traversal prunes interior subtrees), later
// rounds only from the previous round's newly created leaves, and every
// demand region is sent at most once per level (deduplicated against all
// prior rounds). One AllreduceOr per round detects that no rank has
// anything left to send, so the exchange count is the demand cascade depth
// — ≤2 on the Fig-4 fractal workload, pinned by test.
//
// Because refinement is monotone and every refinement is forced by the
// balance condition, the fixpoint is the unique minimal 2:1-balanced
// refinement: bitwise identical (same Checksum) to the old ripple, which
// the tests pin against the preserved reference implementation.
func (f *Forest) Balance(kind BalanceKind) {
	tr := f.Comm.Tracer()
	defer tr.StartSpan("balance")()

	tr.Begin("balance.local")
	f.localBalance(kind, f.balanceSeeds(kind))
	tr.End()

	sent := make(map[octant.Octant]int8)
	var frontier []octant.Octant
	exchanges := 0
	for {
		out := f.remoteDemands(kind, frontier, exchanges == 0, sent)
		if !mpi.AllreduceOr(f.Comm, len(out) > 0) {
			break
		}
		tr.Begin("balance.round")
		exchanges++
		in := mpi.SparseExchange(f.Comm, out, TagBalance)
		var mine []demand
		for _, ds := range in {
			mine = append(mine, ds...)
		}
		created := f.applyDemands(mine)
		created = append(created, f.localBalance(kind, created)...)
		frontier = created
		tr.End()
	}
	f.BalanceRounds = exchanges
	tr.Arg("rounds", int64(exchanges))
	f.addCounter("balance_rounds", int64(exchanges))
	f.balanced, f.balancedKind = true, kind
	f.adapted, f.changed = false, f.changed[:0]
	f.syncCounts()
}

// balanceSeeds returns the local leaves whose demands the local pass of
// Balance has to derive. Every local leaf, unless the forest is known to
// have been balanced (for at least this kind) before the Refine and Coarsen
// calls whose new leaves are in changed: then a violated demand has a
// changed leaf at one end, and the seeds are
//
//   - the changed leaves that are still leaves (a later Refine or Coarsen
//     may have replaced them), for the demands they make, and
//   - every local leaf two or more levels finer than a changed leaf inside
//     one of its same-size neighbour regions, for the demands made of it.
//
// The second set is what a coarsened parent needs: nothing about the finer
// leaf beside it changed, yet that leaf's demand is the violated one.
// Seeding the changed leaves alone under-refines. The regions hold some
// finer leaves that do not touch the changed leaf; their demands are
// satisfied already and cost only the enumeration. Demands across the rank
// boundary are not this pass's business: the exchange rounds derive them
// from the whole partition boundary whatever the seeds were.
func (f *Forest) balanceSeeds(kind BalanceKind) []octant.Octant {
	if !f.balanced || f.balancedKind < kind {
		return f.Local
	}
	var seeds []octant.Octant
	live := 0
	for _, c := range f.changed {
		if i := octant.SearchContaining(f.Local, c); i < 0 || f.Local[i] != c {
			continue
		}
		live++
		seeds = append(seeds, c)
		for _, n := range f.neighborsFor(c, kind) {
			if !f.overlapsLocal(n) {
				continue
			}
			lo, hi := octant.SearchOverlapRange(f.Local, n)
			for _, o := range f.Local[lo:hi] {
				if o.Level >= c.Level+2 {
					seeds = append(seeds, o)
				}
			}
		}
	}
	f.addCounter("balance_seeds", int64(live))
	slices.SortFunc(seeds, octant.Compare)
	return slices.Compact(seeds)
}

// neighborsFor enumerates the same-size neighbour images of o covered by
// the balance kind.
func (f *Forest) neighborsFor(o octant.Octant, kind BalanceKind) []octant.Octant {
	out := make([]octant.Octant, 0, 26)
	for face := 0; face < octant.NumFaces; face++ {
		out = append(out, f.Conn.FaceNeighbors(o, face)...)
	}
	if kind >= BalanceFaceEdge {
		for e := 0; e < octant.NumEdges; e++ {
			out = append(out, f.Conn.EdgeNeighbors(o, e)...)
		}
	}
	if kind >= BalanceFull {
		for k := 0; k < octant.NumCorners; k++ {
			out = append(out, f.Conn.CornerNeighbors(o, k)...)
		}
	}
	return out
}

// localBalance drives the communication-free part of Balance to a local
// fixpoint: starting from the seed leaves, it derives the demands whose
// regions overlap the local segment, refines the violating local leaves,
// and feeds each iteration's newly created leaves back in as the next seed
// frontier. Returns every leaf it created. The balance_seeds counter is
// the number of leaves whose neighbourhood Balance enumerated.
func (f *Forest) localBalance(kind BalanceKind, seeds []octant.Octant) []octant.Octant {
	var created []octant.Octant
	for len(seeds) > 0 {
		f.addCounter("balance_seeds", int64(len(seeds)))
		demands := make(map[octant.Octant]int8)
		for _, o := range seeds {
			if o.Level < 1 {
				continue
			}
			min := o.Level - 1
			for _, n := range f.neighborsFor(o, kind) {
				if !f.overlapsLocal(n) {
					continue
				}
				if cur, ok := demands[n]; !ok || cur < min {
					demands[n] = min
				}
			}
		}
		ds := make([]demand, 0, len(demands))
		for o, min := range demands {
			ds = append(ds, demand{O: o, MinLevel: min})
		}
		seeds = f.applyDemands(ds)
		created = append(created, seeds...)
	}
	return created
}

// remoteDemands derives the demands whose regions overlap remote curve
// segments and buckets them by owner rank. The first exchange round (all
// == true) enumerates candidates via the recursive boundary traversal —
// interior subtrees are pruned wholesale — while later rounds consider
// only the frontier of newly created leaves. sent records the strongest
// level already shipped per region across rounds, so nothing is sent
// twice.
func (f *Forest) remoteDemands(kind BalanceKind, frontier []octant.Octant, all bool, sent map[octant.Octant]int8) map[int][]demand {
	demands := make(map[octant.Octant]int8)
	consider := func(o octant.Octant) {
		if o.Level < 1 {
			return
		}
		min := o.Level - 1
		for _, n := range f.neighborsFor(o, kind) {
			if f.ownedHereOnly(n) {
				continue
			}
			if cur, ok := demands[n]; ok && cur >= min {
				continue
			}
			if s, ok := sent[n]; ok && s >= min {
				continue
			}
			demands[n] = min
		}
	}
	if all {
		f.forEachBoundaryLeaf(func(_ int, o octant.Octant) { consider(o) })
	} else {
		for _, o := range frontier {
			consider(o)
		}
	}
	me := f.Comm.Rank()
	out := make(map[int][]demand)
	for n, min := range demands {
		sent[n] = min
		lo, hi := f.OwnersOfRange(n)
		for r := lo; r <= hi; r++ {
			if r != me {
				out[r] = append(out[r], demand{O: n, MinLevel: min})
			}
		}
	}
	return out
}

// applyDemands refines every local leaf coarser than a demand overlapping
// it and returns the newly created leaves. Each demand's overlapping leaf
// range is located by binary search on the curve (octants nest or are
// disjoint, so curve-range overlap is geometric overlap), costing
// O(D log N) plus one rebuild sweep — no per-leaf ancestor probing.
func (f *Forest) applyDemands(ds []demand) []octant.Octant {
	if len(ds) == 0 {
		return nil
	}
	perLeaf := make(map[int][]demand)
	for _, d := range ds {
		lo, hi := octant.SearchOverlapRange(f.Local, d.O)
		for i := lo; i < hi; i++ {
			if f.Local[i].Level < d.MinLevel {
				perLeaf[i] = append(perLeaf[i], d)
			}
		}
	}
	if len(perLeaf) == 0 {
		return nil
	}
	out := make([]octant.Octant, 0, len(f.Local)+8*len(perLeaf))
	var created []octant.Octant
	var expand func(o octant.Octant, active []demand)
	expand = func(o octant.Octant, active []demand) {
		need := false
		kept := active[:0:0]
		for _, d := range active {
			if !o.Overlaps(d.O) {
				continue
			}
			kept = append(kept, d)
			if o.Level < d.MinLevel {
				need = true
			}
		}
		if !need {
			out = append(out, o)
			return
		}
		for i := 0; i < octant.NumChildren; i++ {
			expand(o.Child(i), kept)
		}
	}
	for i, o := range f.Local {
		act := perLeaf[i]
		if len(act) == 0 {
			out = append(out, o)
			continue
		}
		// act is non-empty only when o violates an overlapping demand, so
		// the expansion always splits o: everything emitted is new.
		start := len(out)
		expand(o, act)
		created = append(created, out[start:]...)
	}
	f.Local = out
	return created
}
