package trace

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRankTracers exercises the lock-free design from many rank
// goroutines at once, the way a traced mpi run drives it: each goroutine
// owns one RankTracer and hammers it while the others do the same. Run under
// `go test -race` this verifies the per-rank buffers really are disjoint
// (any cross-rank sharing would be flagged as a data race).
func TestConcurrentRankTracers(t *testing.T) {
	const ranks = 16
	tr := New(ranks)
	var wg sync.WaitGroup
	wg.Add(ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			defer wg.Done()
			rt := tr.Rank(r)
			for i := 0; i < 500; i++ {
				rt.Begin("phase")
				rt.BeginCat("coll", CatComm)
				rt.AddWait("recv", time.Microsecond*time.Duration(i%7))
				rt.End()
				rt.Arg("i", int64(i))
				rt.End()
				rt.Span("leaf", func() {})
			}
		}(r)
	}
	wg.Wait()

	// The buffers are only read after all writers joined.
	stats := tr.Aggregate()
	if len(stats) == 0 {
		t.Fatal("no aggregated phases")
	}
	for _, st := range stats {
		if st.Name == "phase" && st.Count != ranks*500 {
			t.Fatalf("lost spans: %d != %d", st.Count, ranks*500)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}
