package core

import (
	"slices"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// BalanceKind selects which neighbour relations the 2:1 balance constraint
// covers; each value equals the connectivity.Scope of those relations.
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

// demand is what the exchange rounds send: every leaf overlapping region O
// must have at least level MinLevel, the same condition as "target
// O.AncestorAt(MinLevel) is a node". Demands are derived from leaves'
// same-size neighbour regions and routed to the owners of those regions.
type demand struct {
	O        octant.Octant
	MinLevel int8
}

// Balance enforces at most 2:1 size relations between neighbouring leaves,
// including across inter-tree faces, edges, and corners with arbitrary
// relative rotations, by local refinement where necessary.
//
// A forest is balanced for a kind iff, for every leaf o at level ≥ 2, each
// same-size neighbour image a of o's parent p is a node (no leaf strictly
// contains a). p is internal, so a leaf inside p touches a, and its demand
// on its neighbour inside a makes a a node; conversely, every neighbour of
// o lies in p or in a neighbour of p. Balance checks these targets once per
// sibling family instead of checking each leaf's demands.
//
// It follows the recursive scheme of arXiv:1406.0089. Phase 1
// (localBalance) makes the targets overlapping the local curve segment
// nodes, to a communication-free fixpoint, starting from every local leaf
// or from the leaves balanceSeeds picks. Phase 2 runs a bounded number of
// inter-rank demand exchanges: the first round derives demands from the
// partition boundary alone (the recursive traversal prunes interior
// subtrees), later rounds from the leaves the previous round created, and
// no region is sent twice at a level. A received demand becomes its target.
// One AllreduceOr per round detects that no rank has anything left to send,
// so the exchange count is the demand cascade depth — ≤2 on the Fig-4
// fractal workload, pinned by test.
//
// Refinement is monotone and every split is forced, so the fixpoint is the
// unique minimal 2:1-balanced refinement: the same Checksum as the ripple
// protocol preserved as a test oracle.
func (f *Forest) Balance(kind BalanceKind) {
	tr := f.span("balance")
	defer tr.End()

	var cand candidates
	tr.Begin("balance.local")
	f.localBalance(kind, f.balanceSeeds(kind), &cand, nil)
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
		for _, ds := range mpi.SparseExchange(f.Comm, out, TagBalance) {
			for _, d := range ds {
				cand.add(f, d.O.AncestorAt(d.MinLevel).CurveKey())
			}
		}
		frontier = f.refineToNodes(cand.take(f))
		f.localBalance(kind, frontier, &cand, &frontier)
		tr.End()
	}
	f.BalanceRounds = exchanges
	tr.Arg("rounds", int64(exchanges))
	f.addCounter("balance_rounds", int64(exchanges))
	f.balanced, f.balancedKind = true, kind
	f.adapted, f.changed = false, f.changed[:0]
	if cap(f.Local)-len(f.Local) > len(f.Local)/8 {
		// refineToNodes sizes Local exactly, so this is the slack of the
		// phase before, which a Balance that refined nothing kept.
		f.Local = slices.Clone(f.Local)
	}
	f.syncCounts()
}

// balanceSeeds returns the local leaves the local pass of Balance starts
// from: every local leaf, unless the forest is known to have been balanced
// (for at least this kind) before the Refine and Coarsen calls whose new
// leaves are in changed. Then a violated demand has a changed leaf at one
// end, and the seeds are the changed leaves that are still leaves, plus
// every local leaf two or more levels finer than a changed leaf inside one
// of its same-size neighbour regions. The second set is what a coarsened
// parent needs: the finer leaf beside it did not change, yet its demand is
// the violated one, so seeding the changed leaves alone under-refines. Some
// of those finer leaves do not touch the changed leaf and cost only the
// enumeration. Demands across the rank boundary are the exchange rounds'
// business, whatever the seeds were.
func (f *Forest) balanceSeeds(kind BalanceKind) []octant.Octant {
	if !f.balanced || f.balancedKind < kind {
		return f.Local
	}
	var seeds, nbrs []octant.Octant
	for _, c := range f.changed {
		if i := octant.SearchContaining(f.Local, c); i < 0 || f.Local[i] != c {
			continue
		}
		seeds = append(seeds, c)
		nbrs = f.Conn.AppendNeighbors(nbrs[:0], c, connectivity.Scope(kind))
		for _, n := range nbrs {
			lo, hi := octant.SearchOverlapRange(f.Local, n)
			for _, o := range f.Local[lo:hi] {
				if o.Level >= c.Level+2 {
					seeds = append(seeds, o)
				}
			}
		}
	}
	radixSort(seeds, func(o *octant.Octant) (uint64, uint64) { k := o.CurveKey(); return k.Hi, k.Lo })
	return slices.Compact(seeds)
}

// localBalance drives the communication-free part of Balance to a local
// fixpoint. Each iteration enumerates the neighbourhood of each distinct
// parent of the curve-sorted seeds once, skipping targets inside the
// grandparent (an internal octant's children are nodes) and off the local
// segment (the exchange rounds' business); one refineToNodes makes the rest
// nodes, and the leaves it creates seed the next iteration. Every leaf it
// creates is appended to created unless that is nil. The balance_seeds
// counter counts seed leaves.
func (f *Forest) localBalance(kind BalanceKind, seeds []octant.Octant, cand *candidates, created *[]octant.Octant) {
	var nbrs []octant.Octant
	for len(seeds) > 0 {
		f.addCounter("balance_seeds", int64(len(seeds)))
		var last octant.Octant // the root of tree 0: no seed's parent
		for _, o := range seeds {
			if o.Level < 2 || o.Parent() == last {
				continue
			}
			last = o.Parent()
			g := last.Parent()
			nbrs = f.Conn.AppendNeighbors(nbrs[:0], last, connectivity.Scope(kind))
			for _, a := range nbrs {
				if !g.IsAncestorOf(a) && f.overlapsLocal(a) {
					cand.add(f, a.CurveKey())
				}
			}
		}
		if seeds = f.refineToNodes(cand.take(f)); created != nil {
			*created = append(*created, seeds...)
		}
	}
}

// target is a region O to be made a node and the local leaf containing it.
type target struct {
	leaf int
	O    octant.Octant
}

// candChunk bounds Balance's candidate buffer: 16 Ki curve keys, 256 KiB.
const candChunk = 1 << 14

// candidates gathers Balance's candidate regions as curve keys and hands
// them to unmet a full buffer of candChunk keys at a time, so that what
// the candidates hold is bounded whatever their number; nothing of it
// outlives the Balance call.
type candidates struct {
	keys    []octant.CurveKey
	targets []target
	chunks  int // buffers handed to unmet since the last take
}

func (c *candidates) add(f *Forest, k octant.CurveKey) {
	switch len(c.keys) {
	case candChunk:
		c.flush(f)
	case cap(c.keys): // doubling: a full buffer costs two at most
		c.keys = append(make([]octant.CurveKey, 0, max(2*cap(c.keys), 64)), c.keys...)
	}
	c.keys = append(c.keys, k)
}

func (c *candidates) flush(f *Forest) {
	c.targets = f.unmet(c.targets, c.keys)
	c.keys, c.chunks = c.keys[:0], c.chunks+1
}

// take returns the targets of the candidates added since the last take,
// curve-sorted and distinct; they stay valid until the next add.
func (c *candidates) take(f *Forest) []target {
	c.flush(f)
	t := c.targets
	if c.chunks > 1 { // each buffer's targets are sorted, not their union
		// In curve order, targets are in leaf order: sort by leaf, then
		// each leaf's few targets by curve.
		radixSort(t, func(t *target) (uint64, uint64) { return 0, uint64(t.leaf) })
		for i, j := 0, 0; i < len(t); i = j {
			for j = i + 1; j < len(t) && t[j].leaf == t[i].leaf; j++ {
			}
			if j-i > 1 {
				slices.SortFunc(t[i:j], func(a, b target) int { return octant.Compare(a.O, b.O) })
			}
		}
		t = slices.CompactFunc(t, func(a, b target) bool { return a.O == b.O })
	}
	c.targets, c.chunks = t[:0], 0
	return t
}

// unmet appends, in curve order, each distinct candidate region that a
// local leaf strictly contains — that is not yet a node — with that leaf.
// The candidates are radix-sorted and matched against Local in one merge
// walk: the containing leaf is the last one at or before the region on the
// curve, found by galloping from the previous match, so m regions cost
// O(m log(n/m)) comparisons against n leaves, not m binary searches.
func (f *Forest) unmet(dst []target, cand []octant.CurveKey) []target {
	radixSort(cand, func(k *octant.CurveKey) (uint64, uint64) { return k.Hi, k.Lo })
	next := 0 // Local[:next] lie at or before the previous region
	for c, k := range cand {
		if c > 0 && k == cand[c-1] {
			continue
		}
		q := k.Octant()
		lo, hi := next, next
		for step := 1; hi < len(f.Local) && octant.Compare(f.Local[hi], q) <= 0; step *= 2 {
			lo, hi = hi+1, hi+step
		}
		for hi = min(hi, len(f.Local)); lo < hi; {
			if mid := int(uint(lo+hi) >> 1); octant.Compare(f.Local[mid], q) > 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if next = lo; lo > 0 && f.Local[lo-1].Level < q.Level && f.Local[lo-1].Contains(q) {
			dst = append(dst, target{lo - 1, q})
		}
	}
	return dst
}

// refineToNodes splits the local leaves the curve-sorted, distinct targets
// name until every target is a node, and returns the leaves it created.
// Sorted by curve, the targets are sorted by leaf too: one leaf's targets
// are a contiguous run and so are those inside each of its children, so
// one merge walk over Local, copying the runs of untouched leaves whole,
// does all the refinement. A dry run of the same walk counts the leaves
// first, so the new Local and the created list are allocated to size.
func (f *Forest) refineToNodes(targets []target) []octant.Octant {
	if len(targets) == 0 {
		return nil
	}
	split, made := 0, 0
	for t := 0; t < len(targets); split++ {
		i, u := targets[t].leaf, t+1
		for u < len(targets) && targets[u].leaf == i {
			u++
		}
		made += splitTo(nil, f.Local[i], targets[t:u])
		t = u
	}
	out := make([]octant.Octant, 0, len(f.Local)-split+made)
	created := make([]octant.Octant, 0, made)
	next := 0
	for t := 0; t < len(targets); {
		i, u := targets[t].leaf, t+1
		for u < len(targets) && targets[u].leaf == i {
			u++
		}
		out = append(out, f.Local[next:i]...)
		start := len(out)
		splitTo(&out, f.Local[i], targets[t:u])
		created = append(created, out[start:]...)
		next, t = i+1, u
	}
	f.Local = append(out, f.Local[next:]...)
	return created
}

// splitTo appends to out, unless it is nil, the leaves that replace o once
// it is split just far enough for each of the curve-sorted targets inside
// it to be a node, and returns how many they are.
func splitTo(out *[]octant.Octant, o octant.Octant, targets []target) int {
	if len(targets) > 0 && targets[0].O == o {
		targets = targets[1:]
	}
	if len(targets) == 0 {
		if out != nil {
			*out = append(*out, o)
		}
		return 1
	}
	leaves := 0
	for i := 0; i < octant.NumChildren; i++ {
		c := o.Child(i)
		n := 0
		for n < len(targets) && c.Contains(targets[n].O) {
			n++
		}
		leaves += splitTo(out, c, targets[:n])
		targets = targets[n:]
	}
	return leaves
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
	var nbrs []octant.Octant
	consider := func(o octant.Octant) {
		if o.Level < 1 {
			return
		}
		min := o.Level - 1
		nbrs = f.Conn.AppendNeighbors(nbrs[:0], o, connectivity.Scope(kind))
		for _, n := range nbrs {
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
