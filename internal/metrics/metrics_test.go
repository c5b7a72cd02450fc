package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	r.Counter("x").Add(4)
	if r.Count("x") != 7 {
		t.Fatalf("count = %d", r.Count("x"))
	}
	r.Reset()
	if r.Count("x") != 0 || r.Count("missing") != 0 {
		t.Fatal("reset failed")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("n").Add(1)
				r.Histogram("t", UnitDuration).ObserveDuration(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if sum := r.Histogram("t", UnitDuration).Sum(); r.Count("n") != 800 || sum != int64(800*time.Microsecond) {
		t.Fatalf("count = %d, total = %v", r.Count("n"), time.Duration(sum))
	}
}
