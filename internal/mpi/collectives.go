package mpi

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Collectives use log-depth binomial-tree algorithms. The tree on P ranks
// is the standard binomial one: the parent of rank r is r with its lowest
// set bit cleared, and r's children are r+2^k for every 2^k smaller than
// r's lowest set bit (rank 0, the root, has children at every power of
// two below P). A rank's subtree covers the contiguous rank block
// [r, r+lowbit(r)) clipped to P, which gives three properties the
// implementations lean on:
//
//   - reductions combine contiguous rank blocks in ascending rank order,
//     so op only needs to be associative and the evaluation bracketing is
//     a fixed function of P — results are bitwise-identical on every rank
//     and across runs (the deterministic-reduction guarantee
//     AllreduceSumFloat documents);
//   - gathers assemble rank-ordered slices by concatenating child blocks;
//   - scans split naturally: a child's exclusive prefix is the parent's
//     prefix combined with the earlier siblings' block sums.
//
// Each collective is one up-phase (leaves toward root) and, where a
// result must come back, one down-phase (root toward leaves): 2(P-1)
// messages total with a critical path of O(log P) rounds, against the
// same 2(P-1) messages but an O(P) serial bottleneck at rank 0 for the
// star algorithms these replaced. ExScan runs the same single up/down
// pass with O(1) payloads, replacing an Allgather-based version that
// shipped and re-reduced O(P) data on every rank. SparseExchange
// discovers its communication pattern sparsely — a binomial reduction of
// {destination -> sources} lists to rank 0 and a scatter of each
// subtree's portion back down — so discovery costs O(P + neighbor pairs)
// messages instead of the dense count-Alltoall's O(P^2).
//
// Textbook alternatives with P·log P messages (dissemination barrier,
// recursive-doubling allreduce, Bruck allgather) were measured 3-8x
// slower at P=256 on the single-core host this runtime targets, where
// wall time is proportional to total message count; see EXPERIMENTS.md.
//
// All collectives must be called by every rank in the same order. Tree
// rounds stay on per-collective internal tags (see mpi.go) so distinct
// collective types never cross-match; within one type, per-channel FIFO
// ordering keeps back-to-back calls aligned. Every collective
// self-records a CatComm span, so a trace shows exactly where each rank
// sat inside e.g. Balance's Allreduce; the blocked portion is attributed
// by the wait spans the underlying receives emit.

// span opens a CatComm span on the calling rank and returns the rank's
// tracer, for `defer c.span(name).End()` (no closure to allocate).
func (c *Comm) span(name string) *trace.RankTracer {
	tr := c.Tracer()
	tr.BeginCat(name, trace.CatComm)
	return tr
}

// upMask returns the first mask at which rank r stops receiving children:
// r's lowest set bit, or the first power of two >= p for the root. The
// up-phase loops over masks below it; the down-phase loops downward from
// it. Callers iterate the same shape so up and down phases pair exactly.
func upMask(r, p int) int {
	mask := 1
	for mask < p && r&mask == 0 {
		mask <<= 1
	}
	return mask
}

// Barrier blocks until all ranks have entered it: an empty binomial
// reduction to rank 0 followed by an empty broadcast back down.
func (c *Comm) Barrier() {
	defer c.span("Barrier").End()
	p := c.world.size
	if p == 1 {
		return
	}
	r := c.rank
	mask := 1
	for mask < p && r&mask == 0 {
		if src := r | mask; src < p {
			c.recv(src, tagBarrier)
		}
		mask <<= 1
	}
	if r != 0 {
		c.send(r&^mask, tagBarrier, nil)
		c.recv(r&^mask, tagBarrier)
	}
	for cm := mask >> 1; cm >= 1; cm >>= 1 {
		if child := r + cm; child < p {
			c.send(child, tagBarrier, nil)
		}
	}
}

// Bcast distributes root's value to all ranks and returns it; non-root
// ranks pass their (ignored) local value. Binomial-tree broadcast on the
// virtual ranks vr = (rank - root) mod P: log-depth, P-1 messages.
func Bcast[T any](c *Comm, root int, v T) T {
	defer c.span("Bcast").End()
	p := c.world.size
	if p == 1 {
		return v
	}
	vr := (c.rank - root + p) % p
	mask := upMask(vr, p)
	if vr != 0 {
		pl, _ := c.recv((vr&^mask+root)%p, tagBcast)
		v = pl.(T)
	}
	for cm := mask >> 1; cm >= 1; cm >>= 1 {
		if child := vr + cm; child < p {
			c.send((child+root)%p, tagBcast, v)
		}
	}
	return v
}

// Gather collects one value from every rank at root, ordered by rank.
// Only root receives a non-nil slice. Binomial-tree gather: each rank
// concatenates its children's contiguous virtual-rank blocks onto its own
// value and forwards the block to its parent.
func Gather[T any](c *Comm, root int, v T) []T {
	defer c.span("Gather").End()
	p := c.world.size
	if p == 1 {
		return []T{v}
	}
	vr := (c.rank - root + p) % p
	buf := gatherTree(c, vr, v, root, tagGather)
	if vr != 0 {
		c.send((vr&^upMask(vr, p)+root)%p, tagGather, buf)
		return nil
	}
	if root == 0 {
		return buf
	}
	out := make([]T, p)
	for i, x := range buf {
		out[(i+root)%p] = x
	}
	return out
}

// gatherTree runs the up-phase of a binomial gather on virtual ranks:
// it returns vr's subtree block [vr, vr+lowbit(vr)) clipped to P, in
// ascending virtual-rank order. The caller sends it to the parent.
func gatherTree[T any](c *Comm, vr int, v T, root, tag int) []T {
	p := c.world.size
	sub := vr & -vr
	if vr == 0 {
		sub = p
	}
	if p-vr < sub {
		sub = p - vr
	}
	buf := make([]T, 1, sub)
	buf[0] = v
	for mask := 1; mask < p && vr&mask == 0; mask <<= 1 {
		if src := vr | mask; src < p {
			pl, _ := c.recv((src+root)%p, tag)
			buf = append(buf, pl.([]T)...)
		}
	}
	return buf
}

// Allgather collects one value from every rank on every rank, ordered by
// rank: a binomial gather to rank 0 followed by a binomial broadcast of
// the assembled slice. This is the collective the paper's Partition
// algorithm relies on ("one call to MPI_Allgather with one long integer
// per core"). The returned slice is shared across ranks; callers must
// treat it as read-only.
func Allgather[T any](c *Comm, v T) []T {
	defer c.span("Allgather").End()
	p := c.world.size
	if p == 1 {
		return []T{v}
	}
	r := c.rank
	buf := gatherTree(c, r, v, 0, tagAllgather)
	mask := upMask(r, p)
	if r != 0 {
		c.send(r&^mask, tagAllgather, buf)
		pl, _ := c.recv(r&^mask, tagAllgather)
		buf = pl.([]T)
	}
	for cm := mask >> 1; cm >= 1; cm >>= 1 {
		if child := r + cm; child < p {
			c.send(child, tagAllgather, buf)
		}
	}
	return buf
}

// reduceTree runs the up-phase of a binomial reduction to rank 0 and
// returns the calling rank's partial: the op-fold of its subtree's rank
// block in ascending rank order. Because a child's block [r+m, r+2m) is
// contiguous with the accumulator's [r, r+m), every op application joins
// two adjacent rank blocks left-to-right; the bracketing depends only on
// P, making results deterministic for any associative op.
func reduceTree[T any](c *Comm, v T, op func(a, b T) T, tag int) T {
	p := c.world.size
	r := c.rank
	acc := v
	for mask := 1; mask < p && r&mask == 0; mask <<= 1 {
		if src := r | mask; src < p {
			pl, _ := c.recv(src, tag)
			acc = op(acc, pl.(T))
		}
	}
	return acc
}

// Allreduce combines every rank's value with op (associative; applied
// over adjacent rank blocks in ascending rank order, so commutativity is
// not required) and returns the result on all ranks: a binomial
// reduction to rank 0 followed by a binomial broadcast of the result.
// The fixed combining tree makes the result bitwise-identical on every
// rank and across runs.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T) T {
	defer c.span("Allreduce").End()
	p := c.world.size
	if p == 1 {
		return v
	}
	r := c.rank
	acc := reduceTree(c, v, op, tagAllreduce)
	mask := upMask(r, p)
	if r != 0 {
		c.send(r&^mask, tagAllreduce, acc)
		pl, _ := c.recv(r&^mask, tagAllreduce)
		acc = pl.(T)
	}
	for cm := mask >> 1; cm >= 1; cm >>= 1 {
		if child := r + cm; child < p {
			c.send(child, tagAllreduce, acc)
		}
	}
	return acc
}

// AllreduceSum returns the sum over all ranks of v.
func AllreduceSum(c *Comm, v int64) int64 {
	return Allreduce(c, v, func(a, b int64) int64 { return a + b })
}

// AllreduceSumFloat returns the floating-point sum over all ranks of v.
// The summation order is a fixed association tree over the rank-ordered
// values (a function of P only), so the result is deterministic: bitwise
// identical on every rank and across repeated runs.
func AllreduceSumFloat(c *Comm, v float64) float64 {
	return Allreduce(c, v, func(a, b float64) float64 { return a + b })
}

// AllreduceMax returns the maximum over all ranks of v.
func AllreduceMax(c *Comm, v float64) float64 {
	return Allreduce(c, v, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllreduceOr returns the logical OR over all ranks of v. Used by Balance to
// detect fixpoint convergence of the ripple protocol.
func AllreduceOr(c *Comm, v bool) bool {
	return Allreduce(c, v, func(a, b bool) bool { return a || b })
}

// ExScan returns the exclusive prefix reduction of v by rank order: rank
// r receives op(v_0, ..., v_{r-1}) under a fixed association, and rank 0
// receives the zero value. One binomial up/down pass with O(1) payloads:
// the up-phase reduces subtree block sums toward rank 0, recording the
// partial accumulated before each child was absorbed; the down-phase
// hands every child op(parent's exclusive prefix, that partial) — the
// fold of all ranks before the child's block. 2(P-1) messages and
// O(log P) depth, replacing the Allgather-based version that shipped and
// re-reduced O(P) data on every rank.
func ExScan[T any](c *Comm, v T, op func(a, b T) T) T {
	defer c.span("ExScan").End()
	p := c.world.size
	var zero T
	if p == 1 {
		return zero
	}
	r := c.rank
	type childPre struct {
		child int
		pre   T // fold over [r, child): acc before absorbing the child
	}
	var kids []childPre
	acc := v
	for mask := 1; mask < p && r&mask == 0; mask <<= 1 {
		if src := r | mask; src < p {
			kids = append(kids, childPre{src, acc})
			pl, _ := c.recv(src, tagExScan)
			acc = op(acc, pl.(T))
		}
	}
	var left T // fold over [0, r); meaningful only for r != 0
	if r != 0 {
		c.send(r&^upMask(r, p), tagExScan, acc)
		pl, _ := c.recv(r&^upMask(r, p), tagExScan)
		left = pl.(T)
	}
	for _, k := range kids {
		if r == 0 {
			c.send(k.child, tagExScan, k.pre)
		} else {
			c.send(k.child, tagExScan, op(left, k.pre))
		}
	}
	if r == 0 {
		return zero
	}
	return left
}

// BcastErr makes rank 0's error outcome collective: every rank returns
// nil when rank 0 succeeded, and a non-nil error otherwise (rank 0 gets
// its original error; the others get one carrying the same text). Used by
// rank-0-writes-the-file operations like checkpointing so the ranks can
// never disagree about whether the operation succeeded.
func BcastErr(c *Comm, err error) error {
	var s string
	if c.Rank() == 0 && err != nil {
		s = err.Error()
	}
	s = Bcast(c, 0, s)
	if s == "" {
		return nil
	}
	if c.Rank() == 0 {
		return err
	}
	return errors.New(s)
}

// AgreeErr makes any rank's error outcome collective: every rank returns
// nil only when every rank passed nil. A rank that failed gets its own
// error back; the others get one naming the lowest failing rank. Used by
// every-rank-reads-its-own-slice operations like checkpoint loading: a
// rank that found its slice corrupt must not return while its peers walk
// into the next collective and block there forever.
func AgreeErr(c *Comm, err error) error {
	var s string
	if err != nil {
		s = err.Error()
	}
	for r, t := range Allgather(c, s) {
		if t != "" && err == nil {
			err = fmt.Errorf("rank %d: %s", r, t)
		}
	}
	return err
}

// SparseExchange sends out[i] to each rank i present in the map and
// returns the payloads received, keyed by source rank. Payloads travel
// point-to-point on the caller's tag; callers must leave the tag free
// (tag+1, which an earlier protocol also claimed, is no longer used but
// remains reserved for compatibility).
//
// The set of communicating pairs is discovered sparsely, mirroring how
// p4est's Ghost and Balance phases establish their communication
// patterns without all-to-all traffic: every rank contributes its
// {destination -> sources} entries to a binomial reduction onto rank 0,
// which then scatters each subtree's portion back down the same tree, so
// every rank learns exactly which sources will message it. Discovery
// costs 2(P-1) messages carrying O(neighbor pairs) total data, against
// the dense count-Alltoall's P(P-1) messages. Receives are posted
// per-source in ascending order, which keeps back-to-back exchanges on
// one tag safe via per-channel FIFO ordering.
func SparseExchange[T any](c *Comm, out map[int]T, tag int) map[int]T {
	defer c.span("SparseExchange").End()
	p := c.world.size
	r := c.rank
	in := make(map[int]T)
	for to, v := range out {
		if to == r {
			in[r] = v
			continue
		}
		c.Send(to, tag, v)
	}
	if p == 1 {
		return in
	}

	// Discovery: reduce {dest -> sources} lists onto rank 0, then split
	// them back down by child subtree. After the down-phase every rank's
	// map holds exactly the entries for its own subtree block, and after
	// the scatter loop only its own entry remains.
	pairs := make(map[int][]int32)
	for to := range out {
		if to != r {
			pairs[to] = append(pairs[to], int32(r))
		}
	}
	for mask := 1; mask < p && r&mask == 0; mask <<= 1 {
		if src := r | mask; src < p {
			pl, _ := c.recv(src, tagSparseUp)
			for d, ss := range pl.(map[int][]int32) {
				pairs[d] = append(pairs[d], ss...)
			}
		}
	}
	mask := upMask(r, p)
	if r != 0 {
		c.send(r&^mask, tagSparseUp, pairs)
		pl, _ := c.recv(r&^mask, tagSparseDown)
		pairs = pl.(map[int][]int32)
	}
	for cm := mask >> 1; cm >= 1; cm >>= 1 {
		child := r + cm
		if child >= p {
			continue
		}
		part := make(map[int][]int32)
		for d, ss := range pairs {
			if d >= child && d < child+cm {
				part[d] = ss
				delete(pairs, d)
			}
		}
		c.send(child, tagSparseDown, part)
	}

	srcs := pairs[r]
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, s := range srcs {
		pl, _ := c.recv(int(s), tag)
		in[int(s)] = pl.(T)
	}
	return in
}
