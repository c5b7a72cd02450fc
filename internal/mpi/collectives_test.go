package mpi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/trace"
)

// awkwardSizes exercises the non-power-of-two paths of the binomial-tree
// algorithms: truncated subtrees, childless inner nodes, and the P=1
// short-circuits.
var awkwardSizes = []int{1, 2, 3, 5, 7, 13}

func TestCollectivesAwkwardSizes(t *testing.T) {
	for _, p := range awkwardSizes {
		p := p
		Run(p, func(c *Comm) {
			r := c.Rank()
			c.Barrier()

			for _, root := range []int{0, p - 1, p / 2} {
				want := root*100 + 7
				v := -1
				if r == root {
					v = want
				}
				if got := Bcast(c, root, v); got != want {
					t.Errorf("P=%d root=%d rank %d: Bcast = %d, want %d", p, root, r, got, want)
				}

				g := Gather(c, root, int64(r*3+1))
				if r == root {
					if len(g) != p {
						t.Fatalf("P=%d root=%d: Gather len = %d", p, root, len(g))
					}
					for i, x := range g {
						if x != int64(i*3+1) {
							t.Errorf("P=%d root=%d: Gather[%d] = %d", p, root, i, x)
						}
					}
				} else if g != nil {
					t.Errorf("P=%d root=%d rank %d: non-root Gather = %v", p, root, r, g)
				}
			}

			all := Allgather(c, int64(r*r))
			for i, x := range all {
				if x != int64(i*i) {
					t.Errorf("P=%d: Allgather[%d] = %d", p, i, x)
				}
			}

			if got, want := AllreduceSum(c, int64(r)), int64(p*(p-1)/2); got != want {
				t.Errorf("P=%d: AllreduceSum = %d, want %d", p, got, want)
			}
			if got := AllreduceMax(c, float64(r%4)); got != math.Min(float64(p-1), 3) {
				t.Errorf("P=%d: AllreduceMax = %v", p, got)
			}

			pre := ExScan(c, int64(r+1), func(a, b int64) int64 { return a + b })
			if want := int64(r * (r + 1) / 2); pre != want {
				t.Errorf("P=%d rank %d: ExScan = %d, want %d", p, r, pre, want)
			}

			// Ring SparseExchange (wrapping), including P=1 self-delivery.
			out := map[int][]int64{
				(r + 1) % p:     {int64(r), 1},
				(r + p - 1) % p: {int64(r), 2},
			}
			in := SparseExchange(c, out, 60)
			for s, v := range in {
				if v[0] != int64(s) {
					t.Errorf("P=%d rank %d: payload from %d = %v", p, r, s, v)
				}
			}
			wantSrcs := map[int]bool{(r + 1) % p: true, (r + p - 1) % p: true}
			if len(in) != len(wantSrcs) {
				t.Errorf("P=%d rank %d: %d sources, want %d (%v)", p, r, len(in), len(wantSrcs), in)
			}
		})
	}
}

// TestBackToBackMixedCollectives issues many collectives of different
// types (and different roots) with no separating barriers, guarding the
// tag-crossing hazard: tree rounds of one collective must never match
// messages of another, and consecutive calls of the same type must stay
// aligned through per-channel FIFO ordering.
func TestBackToBackMixedCollectives(t *testing.T) {
	const p = 13
	Run(p, func(c *Comm) {
		r := c.Rank()
		for iter := 0; iter < 25; iter++ {
			root := iter % p
			bv := -1
			if r == root {
				bv = iter
			}
			if got := Bcast(c, root, bv); got != iter {
				t.Errorf("iter %d: Bcast = %d", iter, got)
			}
			if got := AllreduceSum(c, int64(r+iter)); got != int64(p*(p-1)/2+p*iter) {
				t.Errorf("iter %d: AllreduceSum = %d", iter, got)
			}
			all := Allgather(c, int64(r+iter))
			for i, x := range all {
				if x != int64(i+iter) {
					t.Errorf("iter %d: Allgather[%d] = %d", iter, i, x)
				}
			}
			pre := ExScan(c, int64(1), func(a, b int64) int64 { return a + b })
			if pre != int64(r) {
				t.Errorf("iter %d rank %d: ExScan = %d", iter, r, pre)
			}
			g := Gather(c, root, int64(r))
			if r == root {
				for i, x := range g {
					if x != int64(i) {
						t.Errorf("iter %d: Gather[%d] = %d", iter, i, x)
					}
				}
			}
			out := map[int]int64{(r + iter) % p: int64(r*1000 + iter)}
			in := SparseExchange(c, out, 70)
			for s, v := range in {
				if v != int64(s*1000+iter) {
					t.Errorf("iter %d: sparse payload from %d = %d", iter, s, v)
				}
			}
			if iter%5 == 0 {
				c.Barrier()
			}
		}
	})
}

// TestFloatReductionsDeterministic verifies the deterministic-reduction
// guarantee: for fixed P, float sums and scans are bitwise-identical on
// every rank and across repeated runs, even though the tree bracketing
// differs from a serial left-fold.
func TestFloatReductionsDeterministic(t *testing.T) {
	for _, p := range []int{5, 7, 13} {
		vals := make([]float64, p)
		rng := rand.New(rand.NewSource(int64(p) * 17))
		for i := range vals {
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
		var serial float64
		for _, v := range vals {
			serial += v
		}
		runOnce := func() (sum []float64, scan []float64) {
			sum = make([]float64, p)
			scan = make([]float64, p)
			Run(p, func(c *Comm) {
				sum[c.Rank()] = AllreduceSumFloat(c, vals[c.Rank()])
				scan[c.Rank()] = ExScan(c, vals[c.Rank()], func(a, b float64) float64 { return a + b })
			})
			return sum, scan
		}
		sum1, scan1 := runOnce()
		sum2, scan2 := runOnce()
		for r := 0; r < p; r++ {
			if math.Float64bits(sum1[r]) != math.Float64bits(sum1[0]) {
				t.Errorf("P=%d: Allreduce result differs across ranks: %v", p, sum1)
			}
			if math.Float64bits(sum1[r]) != math.Float64bits(sum2[r]) {
				t.Errorf("P=%d rank %d: Allreduce not deterministic across runs", p, r)
			}
			if math.Float64bits(scan1[r]) != math.Float64bits(scan2[r]) {
				t.Errorf("P=%d rank %d: ExScan not deterministic across runs", p, r)
			}
			if math.Abs(sum1[r]-serial) > 1e-9*math.Abs(serial) {
				t.Errorf("P=%d: Allreduce sum %v far from serial %v", p, sum1[r], serial)
			}
		}
	}
}

// TestExScanTraceSpan asserts ExScan records a CatComm span (it used to
// be the one collective that did not, silently attributing
// PartitionWeighted's comm time to compute in trace reports).
func TestExScanTraceSpan(t *testing.T) {
	const p = 6
	tr := trace.New(p)
	RunOpt(p, RunOptions{Tracer: tr}, func(c *Comm) {
		ExScan(c, int64(c.Rank()), func(a, b int64) int64 { return a + b })
	})
	st, ok := tr.Phase("ExScan")
	if !ok {
		t.Fatal("no ExScan span recorded")
	}
	if st.Count != p {
		t.Errorf("ExScan span count = %d, want %d", st.Count, p)
	}
}

// TestSparseExchangeMessageCountRing asserts the sparse discovery bound:
// with ring-neighbor traffic at P=64, total messages must stay
// O(P + neighbor pairs) — far below the dense count-Alltoall's P(P-1)
// floor (4032 messages at P=64 before any payload moves).
func TestSparseExchangeMessageCountRing(t *testing.T) {
	const p = 64
	Run(p, func(c *Comm) {
		r := c.Rank()
		c.Barrier()
		c.ResetStats()
		out := map[int][]int64{
			(r + 1) % p:     {int64(r)},
			(r + p - 1) % p: {int64(r)},
		}
		in := SparseExchange(c, out, 80)
		if len(in) != 2 {
			t.Errorf("rank %d: got %d sources", r, len(in))
		}
		sent := c.Stats().MsgsSent
		total := AllreduceSum(c, sent)
		// 2 payload sends per rank plus 2(P-1) discovery messages.
		want := int64(2*p + 2*(p-1))
		if total != want {
			t.Errorf("total messages = %d, want %d", total, want)
		}
		if total >= int64(p*(p-1)) {
			t.Errorf("total messages = %d, not below dense Alltoall's %d", total, p*(p-1))
		}
	})
}

// TestSparseExchangeChurn rapidly reissues SparseExchange on one tag with
// a communication pattern that changes every round, from all ranks
// concurrently; run under -race it guards the discovery protocol against
// cross-round leakage.
func TestSparseExchangeChurn(t *testing.T) {
	const p = 16
	const rounds = 40
	dests := func(r, round int) []int {
		set := map[int]bool{
			(r + round) % p:         true,
			(r*3 + round*5 + 1) % p: true,
		}
		if round%3 == 0 {
			set[r] = true // self-delivery mixed in
		}
		out := make([]int, 0, len(set))
		for d := range set {
			out = append(out, d)
		}
		sort.Ints(out)
		return out
	}
	Run(p, func(c *Comm) {
		r := c.Rank()
		for round := 0; round < rounds; round++ {
			out := map[int][]int64{}
			for _, d := range dests(r, round) {
				out[d] = []int64{int64(r), int64(round)}
			}
			in := SparseExchange(c, out, 90)
			var want []int
			for s := 0; s < p; s++ {
				for _, d := range dests(s, round) {
					if d == r {
						want = append(want, s)
					}
				}
			}
			sort.Ints(want)
			var got []int
			for s, v := range in {
				got = append(got, s)
				if v[0] != int64(s) || v[1] != int64(round) {
					t.Errorf("round %d rank %d: payload from %d = %v", round, r, s, v)
				}
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("round %d rank %d: sources %v, want %v", round, r, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d rank %d: sources %v, want %v", round, r, got, want)
				}
			}
		}
	})
}
