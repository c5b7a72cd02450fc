package mpi

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestPayloadBytesCoverage(t *testing.T) {
	const envelope = 16
	cases := []struct {
		payload any
		want    int64
	}{
		{nil, envelope},
		{make([]byte, 10), envelope + 10},
		{make([]int8, 10), envelope + 10},
		{make([]int32, 10), envelope + 40},
		{make([]float32, 10), envelope + 40},
		{make([]int, 10), envelope + 80},
		{make([]int64, 10), envelope + 80},
		{make([]uint64, 10), envelope + 80},
		{make([]float64, 10), envelope + 80},
		{int64(7), envelope + 8},
		{true, envelope + 8},
		{struct{}{}, envelope}, // unknown type: bare envelope
	}
	for _, tc := range cases {
		if got := payloadBytes(tc.payload); got != tc.want {
			t.Errorf("payloadBytes(%T) = %d, want %d", tc.payload, got, tc.want)
		}
	}
}

func TestRecvSideStats(t *testing.T) {
	Run(2, func(c *Comm) {
		c.ResetStats()
		if c.Rank() == 0 {
			time.Sleep(5 * time.Millisecond) // force rank 1 to wait in Recv
			c.Send(1, 3, make([]float32, 100))
		} else {
			c.Recv(0, 3)
			st := c.Stats()
			if st.MsgsRecvd != 1 {
				t.Errorf("MsgsRecvd = %d, want 1", st.MsgsRecvd)
			}
			if st.BytesRecvd != 16+400 {
				t.Errorf("BytesRecvd = %d, want 416", st.BytesRecvd)
			}
			if st.RecvWait <= 0 {
				t.Errorf("RecvWait = %v, want > 0", st.RecvWait)
			}
			ts := st.ByTag[3]
			if ts == nil || ts.MsgsRecvd != 1 || ts.BytesRecvd != 416 {
				t.Errorf("per-tag recv stats wrong: %+v", ts)
			}
		}
	})
}

func TestPerTagStatsSeparateTags(t *testing.T) {
	Run(2, func(c *Comm) {
		c.ResetStats()
		if c.Rank() == 0 {
			c.Send(1, 5, make([]byte, 8))
			c.Send(1, 9, make([]byte, 32))
			st := c.Stats()
			if st.ByTag[5].BytesSent != 24 || st.ByTag[9].BytesSent != 48 {
				t.Errorf("per-tag send split wrong: %+v %+v", st.ByTag[5], st.ByTag[9])
			}
			// Stats() must deep-copy: mutating the copy may not leak back.
			st.ByTag[5].BytesSent = 0
			if c.Stats().ByTag[5].BytesSent != 24 {
				t.Error("Stats() aliases the live per-tag map")
			}
		} else {
			c.Recv(0, 5)
			c.Recv(0, 9)
		}
	})
}

// TestStatsTracerConcurrentRanks hammers sends, receives, collectives, and
// tracer spans from many rank goroutines at once. Run under `go test
// -race ./internal/mpi` it verifies that the per-rank Stats slots and
// trace buffers are free of cross-rank sharing (the lock-free hot-path
// claim), which is the satellite race test the tracing subsystem ships
// with.
func TestStatsTracerConcurrentRanks(t *testing.T) {
	const ranks = 8
	tr := trace.New(ranks)
	RunOpt(ranks, RunOptions{Tracer: tr}, func(c *Comm) {
		rt := c.Tracer()
		if rt == nil || rt.Rank() != c.Rank() {
			t.Errorf("rank %d: wrong tracer", c.Rank())
			return
		}
		next := (c.Rank() + 1) % ranks
		prev := (c.Rank() + ranks - 1) % ranks
		for i := 0; i < 50; i++ {
			rt.Span("ring", func() {
				c.Send(next, i%4, []int32{int32(c.Rank()), int32(i)})
				c.Recv(prev, i%4)
			})
			if i%10 == 0 {
				AllreduceSum(c, int64(i))
				c.Barrier()
			}
		}
		st := c.Stats()
		if st.MsgsRecvd < 50 {
			t.Errorf("rank %d: MsgsRecvd = %d, want >= 50", c.Rank(), st.MsgsRecvd)
		}
	})
	st, ok := tr.Phase("ring")
	if !ok || st.Count != ranks*50 {
		t.Fatalf("ring spans = %+v, want count %d", st, ranks*50)
	}
}

// TestRunTracedSizeMismatch confirms the tracer/world size check.
func TestRunTracedSizeMismatch(t *testing.T) {
	err := RunErrOpt(3, RunOptions{Tracer: trace.New(2)}, func(c *Comm) error { return nil })
	if err == nil {
		t.Fatal("mismatched tracer size accepted")
	}
}

// TestTracerAlwaysOn: a world run without RunOptions.Tracer still hands
// every rank a span store, and a span a rank closes shows in that rank's
// totals (and in no other rank's).
func TestTracerAlwaysOn(t *testing.T) {
	const nap = 2 * time.Millisecond
	Run(2, func(c *Comm) {
		tr := c.Tracer()
		if tr == nil {
			t.Fatal("world without a tracer option has no span store")
		}
		if c.Rank() == 1 {
			tr.Begin("work")
			time.Sleep(nap)
			if got := tr.Total("work"); got != 0 {
				t.Errorf("open span counted in totals: %v", got)
			}
			tr.End()
		}
		c.Barrier()
		got := tr.Total("work")
		if c.Rank() == 1 && got < nap || c.Rank() == 0 && got != 0 {
			t.Errorf("rank %d: work total %v", c.Rank(), got)
		}
	})
}
