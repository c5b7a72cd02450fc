package mpi

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/trace"
)

// pingPongAllocs returns the allocations per round of a two-rank ping-pong
// on user tag 7, rank 0 receiving with Recv or with Irecv/Wait. AllocsPerRun
// counts both ranks: rank 1 echoes exactly the warm-up round plus the
// measured ones.
func pingPongAllocs(tr *trace.Tracer, nonblocking bool) float64 {
	const rounds = 200
	var allocs float64
	RunOpt(2, RunOptions{Tracer: tr}, func(c *Comm) {
		if c.Rank() == 1 {
			for i := 0; i < rounds+1; i++ {
				v, _ := c.Recv(0, 7)
				c.Send(0, 7, v)
			}
			return
		}
		allocs = testing.AllocsPerRun(rounds, func() {
			if nonblocking {
				r := c.Irecv(1, 7)
				c.Send(1, 7, 1)
				r.Wait()
				return
			}
			c.Send(1, 7, 1)
			c.Recv(1, 7)
		})
	})
	return allocs
}

// TestTracedRecvAllocs: a traced receive costs no allocation beyond an
// untraced one — the wait span's name is built once per tag, not once per
// receive.
func TestTracedRecvAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts differ under -race")
	}
	for _, nonblocking := range []bool{false, true} {
		plain := pingPongAllocs(nil, nonblocking)
		traced := pingPongAllocs(trace.NewRing(2, 64), nonblocking)
		if traced != plain {
			t.Errorf("nonblocking=%v: %v allocs per traced round, %v untraced", nonblocking, traced, plain)
		}
	}
}
