// Package core implements the paper's primary contribution: fully
// distributed forest-of-octrees adaptive mesh refinement. A Forest holds the
// leaves (octants) of K logical octrees, totally ordered by the
// space-filling z-curve that traverses the leaves of every tree in sequence,
// and partitioned among P ranks by dividing the curve into P segments.
//
// Globally shared meta-data is limited to one curve marker per rank plus
// two global scalars (the paper's "32 bytes per core"); everything else is
// strictly distributed. The collective algorithms New, Refine, Coarsen,
// Partition, Balance, Ghost, and Nodes follow §II.C of the paper, with the
// recursive Balance/Ghost variants and O(bytes) metadata discipline of the
// follow-up "Recursive algorithms for distributed forests of octrees"
// (arXiv:1406.0089).
package core

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/trace"
)

// Marker is a position on the space-filling curve: the Morton key of a
// max-level octant within a tree. Markers bound each rank's curve segment
// and, together with two scalar totals, are the only globally shared
// meta-data (the paper's "32 bytes per core" discipline; see MetaBytes).
type Marker struct {
	Tree int32
	Key  octant.Key
}

// Less orders curve positions.
func (m Marker) Less(n Marker) bool {
	if m.Tree != n.Tree {
		return m.Tree < n.Tree
	}
	return m.Key < n.Key
}

// markerOf returns the curve position of an octant's first descendant.
func markerOf(o octant.Octant) Marker {
	return Marker{Tree: o.Tree, Key: o.MortonKey()}
}

// markerEnd returns the curve position one past an octant's range,
// overflowing into the next tree when the octant closes its tree.
func markerEnd(o octant.Octant) Marker {
	end := o.RangeEnd()
	if end == octant.Key(octant.NumDescendants(0)) {
		return Marker{Tree: o.Tree + 1, Key: 0}
	}
	return Marker{Tree: o.Tree, Key: end}
}

// Forest is one rank's view of a distributed forest of octrees. All
// operations on a Forest are collective: every rank of the communicator
// must call them in the same order.
type Forest struct {
	Conn *connectivity.Conn
	Comm *mpi.Comm

	// Local holds this rank's leaves in ascending curve order.
	Local []octant.Octant

	gfp         []Marker // curve segment starts, len P+1; gfp[P] is the end sentinel
	globalNum   int64    // total octant count
	globalFirst int64    // global index of Local[0]

	// segLo and segHi are gfp[rank] and gfp[rank+1] as max-level octants,
	// so that the per-probe segment tests form no Morton key.
	segLo, segHi octant.Octant

	// BalanceRounds records how many inter-rank demand exchanges the last
	// Balance call needed after its local pass (0 on one rank; bounded by
	// the demand cascade depth across rank boundaries).
	BalanceRounds int

	// payload moved alongside leaves by PartitionWithData.
	pendingData []float64
	pendingPer  int

	// What the forest knows of its own 2:1 balance, so that Balance can
	// start from what changed instead of from every leaf: balanced is set
	// at the end of Balance (for balancedKind) and stays true while only
	// Refine and Coarsen touch the leaves; they record the leaves they
	// create in changed and set adapted. Both calls are collective, so
	// adapted agrees on all ranks even when only some of them changed a
	// leaf, and a Partition that finds it set — changed leaves may have
	// moved to ranks that do not know of them — drops the mark.
	balanced     bool
	balancedKind BalanceKind
	adapted      bool
	changed      []octant.Octant

	imgs []connectivity.TreePoint // the images of one point, reused by Forest.images
}

// New creates a uniformly refined, equi-partitioned forest at the given
// level (level 0 creates only root octants, potentially leaving many ranks
// empty). New requires no communication beyond the shared-counter setup.
func New(comm *mpi.Comm, conn *connectivity.Conn, level int8) *Forest {
	tr := comm.Tracer()
	tr.Begin("new")
	defer tr.End()
	if level < 0 || level > octant.MaxLevel {
		panic("core: invalid initial level")
	}
	perTree := int64(1) << (3 * uint(level))
	total := int64(conn.NumTrees()) * perTree
	p := int64(comm.Size())
	r := int64(comm.Rank())
	lo := r * total / p
	hi := (r + 1) * total / p
	f := &Forest{Conn: conn, Comm: comm}
	f.Local = make([]octant.Octant, 0, hi-lo)
	shift := 3 * uint(octant.MaxLevel-level)
	for i := lo; i < hi; i++ {
		tree := int32(i / perTree)
		within := uint64(i % perTree)
		f.Local = append(f.Local, octant.FromMortonKey(octant.Key(within<<shift), level, tree))
	}
	f.syncMeta()
	return f
}

// syncMeta refreshes all globally shared meta-data: the curve markers and
// the two global scalars. Only operations that can move curve segment
// boundaries need it — New, Partition, and Load. Refine, Coarsen, and
// Balance replace leaves in place on the curve (a refined leaf's first
// child starts at the parent's position; a coarsened family's parent at
// child 0's), so they call syncCounts alone and the markers stay valid.
func (f *Forest) syncMeta() {
	f.syncMarkers()
	f.syncCounts()
}

// syncCounts refreshes the global octant count and this rank's global
// offset after any operation that changed the local leaves: one ExScan and
// one Allreduce, both with O(1) payloads. No per-rank count array is
// gathered or kept resident — dropping that Allgather is what keeps the
// shared metadata O(bytes) per rank (arXiv:1406.0089's low-memory
// discipline), pinned by MetaBytes.
func (f *Forest) syncCounts() {
	n := int64(len(f.Local))
	f.globalFirst = mpi.ExScan(f.Comm, n, func(a, b int64) int64 { return a + b })
	f.globalNum = mpi.AllreduceSum(f.Comm, n)
	f.setGauge("forest_meta_bytes", f.MetaBytes())
}

// syncMarkers re-gathers the curve segment markers (one per rank, the only
// O(P) shared structure, fixed-size regardless of mesh churn).
func (f *Forest) syncMarkers() {
	p := f.Comm.Size()
	type firstPos struct {
		Has bool
		M   Marker
	}
	fp := firstPos{}
	if len(f.Local) > 0 {
		fp = firstPos{Has: true, M: markerOf(f.Local[0])}
	}
	all := mpi.Allgather(f.Comm, fp)
	f.gfp = make([]Marker, p+1)
	f.gfp[p] = Marker{Tree: f.Conn.NumTrees()}
	for r := p - 1; r >= 0; r-- {
		if all[r].Has {
			f.gfp[r] = all[r].M
		} else {
			f.gfp[r] = f.gfp[r+1]
		}
	}
	lo, hi := f.gfp[f.Comm.Rank()], f.gfp[f.Comm.Rank()+1]
	f.segLo = octant.FromMortonKey(lo.Key, octant.MaxLevel, lo.Tree)
	f.segHi = octant.FromMortonKey(hi.Key, octant.MaxLevel, hi.Tree)
}

// MetaBytes returns the resident globally shared metadata footprint in
// bytes: the P+1 curve markers plus the two global scalars. It is a
// function of the rank count alone — mesh churn (Refine, Coarsen, Balance,
// Partition) cannot grow it, which the meta-bytes regression test pins.
func (f *Forest) MetaBytes() int64 {
	return int64(len(f.gfp))*int64(unsafe.Sizeof(Marker{})) + 2*8
}

// NumLocal returns the number of local leaves.
func (f *Forest) NumLocal() int { return len(f.Local) }

// NumGlobal returns the total number of leaves across all ranks.
func (f *Forest) NumGlobal() int64 { return f.globalNum }

// GlobalFirst returns the global index of this rank's first leaf.
func (f *Forest) GlobalFirst() int64 { return f.globalFirst }

// span opens a phase span on the calling rank's tracer and returns the
// tracer, for `defer f.span(name).End()`.
func (f *Forest) span(name string) *trace.RankTracer {
	tr := f.Comm.Tracer()
	tr.Begin(name)
	return tr
}

// OwnerOfPosition returns the rank owning the given curve position. Any
// rank can answer this from the shared markers alone, in O(log P) — O(1)
// when the position falls in the caller's own segment, the overwhelmingly
// common case for the interior of a rank's subdomain.
func (f *Forest) OwnerOfPosition(m Marker) int {
	me := f.Comm.Rank()
	if !m.Less(f.gfp[me]) && m.Less(f.gfp[me+1]) {
		return me
	}
	// Largest r with gfp[r] <= m.
	r := sort.Search(f.Comm.Size()+1, func(i int) bool {
		return m.Less(f.gfp[i])
	}) - 1
	if r < 0 || r >= f.Comm.Size() {
		panic(fmt.Sprintf("core: position %+v outside forest", m))
	}
	return r
}

// OwnersOfRange returns the inclusive rank range [lo, hi] whose curve
// segments intersect octant o's descendant range. Coarse octants may span
// several ranks.
func (f *Forest) OwnersOfRange(o octant.Octant) (lo, hi int) {
	if me := f.Comm.Rank(); f.ownedHereOnly(o) {
		return me, me
	}
	lo = f.OwnerOfPosition(markerOf(o))
	end := markerEnd(o)
	// Largest r with gfp[r] < end.
	hi = sort.Search(f.Comm.Size()+1, func(i int) bool {
		return !f.gfp[i].Less(end)
	}) - 1
	if hi >= f.Comm.Size() {
		hi = f.Comm.Size() - 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// overlapsLocal reports whether octant o's curve range intersects the
// calling rank's segment. O(1) from the segment bounds, without keys.
func (f *Forest) overlapsLocal(o octant.Octant) bool {
	return octant.ComparePosition(o, f.segHi) < 0 &&
		octant.ComparePosition(f.segLo, o.LastDescendant(octant.MaxLevel)) <= 0
}

// ownedHereOnly reports whether octant o's entire curve range lies within
// the calling rank's segment, i.e. no other rank owns any part of it.
// O(1) from the segment bounds, without keys; this is the subtree pruning
// predicate of the recursive boundary traversal.
func (f *Forest) ownedHereOnly(o octant.Octant) bool {
	return octant.ComparePosition(o, f.segLo) >= 0 &&
		octant.ComparePosition(o.LastDescendant(octant.MaxLevel), f.segHi) < 0
}

// FindLeaf returns the index of the local leaf containing octant q (equal
// or ancestor), or -1 if no local leaf contains it.
func (f *Forest) FindLeaf(q octant.Octant) int {
	i := octant.SearchContaining(f.Local, q)
	if i >= 0 && !f.Local[i].Contains(q) {
		return -1
	}
	return i
}

// Checksum returns a partition-independent checksum of the forest: the sum
// of per-leaf hashes, reduced over all ranks. Two forests with identical
// leaves produce identical checksums regardless of rank count, which the
// tests use to compare parallel runs against serial references.
func (f *Forest) Checksum() uint64 {
	var local uint64
	for _, o := range f.Local {
		local += leafHash(o)
	}
	return uint64(mpi.Allreduce(f.Comm, int64(local), func(a, b int64) int64 {
		return int64(uint64(a) + uint64(b))
	}))
}

func leafHash(o octant.Octant) uint64 {
	// FNV-1a over the octant's identifying fields.
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(uint32(o.Tree)))
	mix(uint64(o.MortonKey()))
	mix(uint64(uint8(o.Level)))
	return h
}

// validateLocal is the communication-free half of Validate: local leaves
// strictly curve-sorted, properly aligned, inside their trees, gap-free
// and consistent with the shared markers.
func (f *Forest) validateLocal() error {
	for i, o := range f.Local {
		if !o.Valid() {
			return fmt.Errorf("leaf %d invalid: %v", i, o)
		}
		if o.Tree < 0 || o.Tree >= f.Conn.NumTrees() {
			return fmt.Errorf("leaf %d tree out of range: %v", i, o)
		}
		if i > 0 && octant.Compare(f.Local[i-1], o) >= 0 {
			return fmt.Errorf("leaves %d,%d out of order: %v %v", i-1, i, f.Local[i-1], o)
		}
	}
	if len(f.Local) > 0 {
		first := markerOf(f.Local[0])
		if first.Less(f.gfp[f.Comm.Rank()]) {
			return fmt.Errorf("first leaf %v before own marker", f.Local[0])
		}
		last := markerEnd(f.Local[len(f.Local)-1])
		if f.gfp[f.Comm.Rank()+1].Less(last) {
			return fmt.Errorf("last leaf %v beyond next marker", f.Local[len(f.Local)-1])
		}
	}
	// Consecutive leaves must be gap-free.
	for i, o := range f.Local {
		if i > 0 {
			prev := f.Local[i-1]
			if prev.Tree == o.Tree {
				if prev.RangeEnd() != o.MortonKey() {
					return fmt.Errorf("gap or overlap between %v and %v", prev, o)
				}
			} else {
				if o.Tree != prev.Tree+1 || prev.RangeEnd() != octant.Key(octant.NumDescendants(0)) || o.MortonKey() != 0 {
					return fmt.Errorf("bad tree transition between %v and %v", prev, o)
				}
			}
		}
	}
	return nil
}

// Validate checks the structural invariants of the distributed forest and
// returns an error describing the first violation: validateLocal's
// rank-local checks, then validateGlobal's. Intended for tests and
// debugging; it is collective, and a rank whose local checks fail returns
// before the collectives — the ranks of a forest built from outside input
// (Load) agree on validateLocal first.
func (f *Forest) Validate() error {
	if err := f.validateLocal(); err != nil {
		return err
	}
	return f.validateGlobal()
}

// validateGlobal is the collective half of Validate.
func (f *Forest) validateGlobal() error {
	// Leaves must tile the forest: local volumes must sum globally to the
	// total volume of all trees.
	var vol uint64
	for _, o := range f.Local {
		vol += octant.NumDescendants(o.Level)
	}
	tot := mpi.Allreduce(f.Comm, int64(vol), func(a, b int64) int64 { return a + b })
	want := int64(octant.NumDescendants(0)) * int64(f.Conn.NumTrees())
	if tot != want {
		return fmt.Errorf("volume %d != expected %d", tot, want)
	}
	// Shared scalars consistent with an on-the-fly reduction (catches a
	// missing syncCounts after a local mutation).
	n := int64(len(f.Local))
	if got := mpi.ExScan(f.Comm, n, func(a, b int64) int64 { return a + b }); got != f.globalFirst {
		return fmt.Errorf("count meta-data stale: globalFirst %d != %d", f.globalFirst, got)
	}
	if got := mpi.AllreduceSum(f.Comm, n); got != f.globalNum {
		return fmt.Errorf("count meta-data stale: globalNum %d != %d", f.globalNum, got)
	}
	return nil
}

// addCounter records n into the named counter of the world's live metrics
// registry, when one is attached. Phase-granularity: one registry lookup
// per call.
func (f *Forest) addCounter(name string, n int64) {
	if reg := f.Comm.Metrics(); reg != nil {
		reg.Counter(name).AddShard(f.Comm.MetricsShard(), n)
	}
}

// setGauge stores v into the named gauge of the world's live metrics
// registry, when one is attached.
func (f *Forest) setGauge(name string, v int64) {
	if reg := f.Comm.Metrics(); reg != nil {
		reg.Gauge(name).SetShard(f.Comm.MetricsShard(), v)
	}
}
