package mpi

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"
)

func TestRunSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		var n int64
		Run(p, func(c *Comm) {
			if c.Size() != p {
				t.Errorf("size = %d, want %d", c.Size(), p)
			}
			atomic.AddInt64(&n, 1)
		})
		if n != int64(p) {
			t.Fatalf("ran %d ranks, want %d", n, p)
		}
	}
}

func TestRunErrPropagates(t *testing.T) {
	want := errors.New("boom")
	err := RunErr(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestRunErrRejectsBadSize(t *testing.T) {
	if err := RunErr(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestSendRecvRing(t *testing.T) {
	const p = 8
	Run(p, func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		c.Send(next, 1, c.Rank())
		got, src := c.Recv(prev, 1)
		if src != prev || got.(int) != prev {
			t.Errorf("rank %d: got %v from %d, want %d from %d", c.Rank(), got, src, prev, prev)
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, "five")
			c.Send(1, 3, "three")
		} else {
			// Receive out of send order: tag matching must hold.
			v3, _ := c.Recv(0, 3)
			v5, _ := c.Recv(0, 5)
			if v3.(string) != "three" || v5.(string) != "five" {
				t.Errorf("tag matching failed: %v %v", v3, v5)
			}
		}
	})
}

func TestRecvFIFOPerChannel(t *testing.T) {
	Run(2, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 7, i)
			}
		} else {
			for i := 0; i < n; i++ {
				v, _ := c.Recv(0, 7)
				if v.(int) != i {
					t.Fatalf("message %d out of order: got %v", i, v)
				}
			}
		}
	})
}

func TestRecvAnySource(t *testing.T) {
	const p = 5
	Run(p, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 1; i < p; i++ {
				v, src := c.Recv(AnySource, 2)
				if v.(int) != src {
					t.Errorf("payload %v != source %d", v, src)
				}
				seen[src] = true
			}
			if len(seen) != p-1 {
				t.Errorf("saw %d sources, want %d", len(seen), p-1)
			}
		} else {
			c.Send(0, 2, c.Rank())
		}
	})
}

func TestBarrier(t *testing.T) {
	const p = 6
	var phase int64
	Run(p, func(c *Comm) {
		atomic.AddInt64(&phase, 1)
		c.Barrier()
		if got := atomic.LoadInt64(&phase); got != p {
			t.Errorf("rank %d passed barrier with phase %d, want %d", c.Rank(), got, p)
		}
		c.Barrier()
	})
}

func TestBcast(t *testing.T) {
	Run(7, func(c *Comm) {
		v := -1
		if c.Rank() == 3 {
			v = 42
		}
		got := Bcast(c, 3, v)
		if got != 42 {
			t.Errorf("rank %d: bcast got %d", c.Rank(), got)
		}
	})
}

func TestGatherAllgather(t *testing.T) {
	const p = 9
	Run(p, func(c *Comm) {
		g := Gather(c, 2, c.Rank()*10)
		if c.Rank() == 2 {
			for i, v := range g {
				if v != i*10 {
					t.Errorf("gather[%d] = %d", i, v)
				}
			}
		} else if g != nil {
			t.Errorf("non-root got %v", g)
		}
		all := Allgather(c, int64(c.Rank()))
		for i, v := range all {
			if v != int64(i) {
				t.Errorf("allgather[%d] = %d", i, v)
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	const p = 10
	Run(p, func(c *Comm) {
		sum := AllreduceSum(c, int64(c.Rank()))
		if sum != p*(p-1)/2 {
			t.Errorf("sum = %d", sum)
		}
		mx := AllreduceMax(c, float64(c.Rank()))
		if mx != p-1 {
			t.Errorf("max = %v", mx)
		}
		or := AllreduceOr(c, c.Rank() == 4)
		if !or {
			t.Error("or = false")
		}
		or = AllreduceOr(c, false)
		if or {
			t.Error("or = true for all-false")
		}
	})
}

func TestExScan(t *testing.T) {
	const p = 8
	Run(p, func(c *Comm) {
		got := ExScan(c, int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
		want := int64(c.Rank() * (c.Rank() + 1) / 2)
		if got != want {
			t.Errorf("rank %d: exscan = %d, want %d", c.Rank(), got, want)
		}
	})
}

func TestAlltoall(t *testing.T) {
	const p = 6
	Run(p, func(c *Comm) {
		out := make([]int, p)
		for i := range out {
			out[i] = c.Rank()*100 + i
		}
		in := alltoall(c, out, 11)
		for j, v := range in {
			if v != j*100+c.Rank() {
				t.Errorf("rank %d: in[%d] = %d, want %d", c.Rank(), j, v, j*100+c.Rank())
			}
		}
	})
}

func TestSparseExchange(t *testing.T) {
	const p = 8
	Run(p, func(c *Comm) {
		// Each rank sends to its two neighbours on a line (no wraparound).
		out := map[int][]int64{}
		if c.Rank() > 0 {
			out[c.Rank()-1] = []int64{int64(c.Rank())}
		}
		if c.Rank() < p-1 {
			out[c.Rank()+1] = []int64{int64(c.Rank())}
		}
		in := SparseExchange(c, out, 20)
		var srcs []int
		for s, v := range in {
			srcs = append(srcs, s)
			if len(v) != 1 || v[0] != int64(s) {
				t.Errorf("rank %d: payload from %d = %v", c.Rank(), s, v)
			}
		}
		sort.Ints(srcs)
		var want []int
		if c.Rank() > 0 {
			want = append(want, c.Rank()-1)
		}
		if c.Rank() < p-1 {
			want = append(want, c.Rank()+1)
		}
		if len(srcs) != len(want) {
			t.Fatalf("rank %d: sources %v, want %v", c.Rank(), srcs, want)
		}
		for i := range srcs {
			if srcs[i] != want[i] {
				t.Errorf("rank %d: sources %v, want %v", c.Rank(), srcs, want)
			}
		}
	})
}

func TestSparseExchangeSelf(t *testing.T) {
	Run(3, func(c *Comm) {
		out := map[int]string{c.Rank(): "self"}
		in := SparseExchange(c, out, 30)
		if in[c.Rank()] != "self" || len(in) != 1 {
			t.Errorf("rank %d: in = %v", c.Rank(), in)
		}
	})
}

func TestStatsCountBytes(t *testing.T) {
	Run(2, func(c *Comm) {
		c.ResetStats()
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, 100))
			st := c.Stats()
			if st.MsgsSent != 1 {
				t.Errorf("msgs = %d", st.MsgsSent)
			}
			if st.BytesSent < 800 {
				t.Errorf("bytes = %d, want >= 800", st.BytesSent)
			}
		} else {
			c.Recv(0, 1)
		}
	})
}
