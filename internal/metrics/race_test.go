package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestRegistryChurn hammers one sharded registry from many goroutines that
// mix recording through resolved handles, per-call lookups by name, and
// concurrent snapshots — the access pattern of rank goroutines recording
// while the telemetry HTTP handler scrapes. Run with -race.
func TestRegistryChurn(t *testing.T) {
	const (
		writers = 8
		iters   = 300
	)
	r := NewSharded(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			h := r.Histogram("step", UnitDuration)
			c := r.Counter("msgs")
			g := r.Gauge("cur_step")
			for i := 0; i < iters; i++ {
				h.ObserveShard(rank, int64(i)*100)
				c.AddShard(rank, 1)
				g.SetShard(rank, int64(i))
				// Lookups by name from the same goroutines.
				r.Histogram("looked_up", UnitDuration).ObserveDuration(time.Microsecond)
				r.Counter("looked_up_n").Add(1)
				r.Histogram("timed", UnitDuration).ObserveDuration(time.Microsecond)
			}
		}(w)
	}
	// Concurrent scrapers: snapshots, quantiles, name-based reads.
	done := make(chan struct{})
	var scraper sync.WaitGroup
	for s := 0; s < 2; s++ {
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, h := range r.Histograms() {
					snap := h.Snapshot()
					_ = snap.Quantile(0.95)
					_ = snap.Mean()
				}
				for _, c := range r.Counters() {
					_ = c.Value()
				}
				_ = r.Histogram("timed", UnitDuration).Sum()
				_ = r.Count("looked_up_n")
			}
		}()
	}
	wg.Wait()
	close(done)
	scraper.Wait()

	if got := r.Counter("msgs").Value(); got != writers*iters {
		t.Fatalf("msgs = %d, want %d", got, writers*iters)
	}
	if got := r.Count("looked_up_n"); got != writers*iters {
		t.Fatalf("looked_up_n = %d, want %d", got, writers*iters)
	}
	if got := r.Histogram("step", UnitDuration).Count(); got != writers*iters {
		t.Fatalf("step count = %d, want %d", got, writers*iters)
	}
}

// TestResetDuringRecording checks that Reset racing with recorders is safe
// (values may land before or after the zeroing, but nothing corrupts).
func TestResetDuringRecording(t *testing.T) {
	r := NewSharded(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			h := r.Histogram("x", UnitNone)
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveShard(rank, 42)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		r.Reset()
	}
	close(stop)
	wg.Wait()
	// Reset zeroes count and sum in separate atomic stores, so a record
	// racing the reset can leave them off by one observation; after a
	// quiescent reset they must agree exactly.
	r.Reset()
	s := r.Histogram("x", UnitNone).Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nonzero after quiescent reset: count=%d sum=%d", s.Count, s.Sum)
	}
}
