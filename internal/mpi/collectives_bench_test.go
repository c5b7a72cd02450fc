package mpi

import (
	"fmt"
	"testing"
)

// BenchmarkCollectives compares the binomial-tree collectives against the
// star (everything through rank 0) and dense-discovery baselines they
// replaced, at P in {4, 16, 64, 256}. The baselines below are verbatim
// copies of the old implementations on the reserved tagPtp. Headline
// cases: ExScan (tree up/down with O(1) payloads vs. allgather+refold
// with O(P) data per rank) and SparseExchange (sparse discovery vs. dense
// count-Alltoall with P(P-1) messages). Measured results are recorded in
// EXPERIMENTS.md.
func BenchmarkCollectives(b *testing.B) {
	for _, p := range []int{4, 16, 64, 256} {
		cases := []struct {
			name string
			fn   func(*Comm)
		}{
			{"Barrier/star", starBarrier},
			{"Barrier/tree", func(c *Comm) { c.Barrier() }},
			{"Allgather/star", func(c *Comm) { starAllgather(c, int64(c.Rank())) }},
			{"Allgather/tree", func(c *Comm) { Allgather(c, int64(c.Rank())) }},
			{"Allreduce/star", func(c *Comm) { starAllreduce(c, int64(c.Rank())) }},
			{"Allreduce/tree", func(c *Comm) { AllreduceSum(c, int64(c.Rank())) }},
			{"ExScan/star", func(c *Comm) { starExScan(c, int64(c.Rank())) }},
			{"ExScan/tree", func(c *Comm) {
				ExScan(c, int64(c.Rank()), func(a, b int64) int64 { return a + b })
			}},
			{"SparseExchange/dense", func(c *Comm) { denseSparseExchange(c, ringOut(c), 21) }},
			{"SparseExchange/sparse", func(c *Comm) { SparseExchange(c, ringOut(c), 23) }},
		}
		for _, tc := range cases {
			tc := tc
			b.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(b *testing.B) {
				Run(p, func(c *Comm) {
					for i := 0; i < b.N; i++ {
						tc.fn(c)
					}
				})
			})
		}
	}
}

// ringOut is the neighbor-pattern workload: each rank addresses its two
// ring neighbors.
func ringOut(c *Comm) map[int][]int64 {
	p := c.Size()
	r := c.Rank()
	return map[int][]int64{
		(r + 1) % p:     {int64(r)},
		(r + p - 1) % p: {int64(r)},
	}
}

// --- old star implementations, kept as benchmark baselines ---

func starBarrier(c *Comm) {
	p := c.Size()
	if p == 1 {
		return
	}
	if c.Rank() == 0 {
		for i := 1; i < p; i++ {
			c.recv(AnySource, tagPtp)
		}
		for i := 1; i < p; i++ {
			c.send(i, tagPtp, nil)
		}
	} else {
		c.send(0, tagPtp, nil)
		c.recv(0, tagPtp)
	}
}

func starAllgather(c *Comm, v int64) []int64 {
	p := c.Size()
	if c.Rank() != 0 {
		c.send(0, tagPtp, v)
		pl, _ := c.recv(0, tagPtp)
		return pl.([]int64)
	}
	out := make([]int64, p)
	out[0] = v
	for i := 1; i < p; i++ {
		pl, _ := c.recv(i, tagPtp)
		out[i] = pl.(int64)
	}
	for i := 1; i < p; i++ {
		c.send(i, tagPtp, out)
	}
	return out
}

func starAllreduce(c *Comm, v int64) int64 {
	p := c.Size()
	if c.Rank() != 0 {
		c.send(0, tagPtp, v)
		pl, _ := c.recv(0, tagPtp)
		return pl.(int64)
	}
	acc := v
	for i := 1; i < p; i++ {
		pl, _ := c.recv(i, tagPtp)
		acc += pl.(int64)
	}
	for i := 1; i < p; i++ {
		c.send(i, tagPtp, acc)
	}
	return acc
}

// starExScan is the old ExScan: allgather everything, refold locally —
// O(P) shipped data and O(P) work per rank.
func starExScan(c *Comm, v int64) int64 {
	all := starAllgather(c, v)
	var acc int64
	for i := 0; i < c.Rank(); i++ {
		acc += all[i]
	}
	return acc
}

// alltoall exchanges one value with every rank: out[i] goes to rank i, and
// the returned slice holds in[j] received from rank j. out must have length
// Size. Ranks may pass their own slot through untouched. It is the dense
// baseline of denseSparseExchange; the program's sparse patterns use
// SparseExchange.
func alltoall[T any](c *Comm, out []T, tag int) []T {
	defer c.span("Alltoall").End()
	if len(out) != c.world.size {
		panic("mpi: alltoall slice length != world size")
	}
	in := make([]T, c.world.size)
	for i, v := range out {
		if i == c.rank {
			in[i] = v
			continue
		}
		c.Send(i, tag, v)
	}
	for i := 0; i < c.world.size; i++ {
		if i == c.rank {
			continue
		}
		p, _ := c.Recv(i, tag)
		in[i] = p.(T)
	}
	return in
}

// denseSparseExchange is the old SparseExchange: pattern discovery by a
// dense Alltoall of counts — P(P-1) messages before any payload moves.
func denseSparseExchange(c *Comm, out map[int][]int64, tag int) map[int][]int64 {
	counts := make([]int, c.Size())
	for to := range out {
		counts[to] = 1
	}
	incoming := alltoall(c, counts, tag)
	for to, v := range out {
		if to == c.Rank() {
			continue
		}
		c.Send(to, tag+1, v)
	}
	in := make(map[int][]int64)
	if v, ok := out[c.Rank()]; ok {
		in[c.Rank()] = v
	}
	for from, flag := range incoming {
		if from == c.Rank() || flag == 0 {
			continue
		}
		p, _ := c.Recv(from, tag+1)
		in[from] = p.([]int64)
	}
	return in
}
