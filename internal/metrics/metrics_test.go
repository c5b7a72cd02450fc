package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestTimersAccumulate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("a", UnitDuration)
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	h.Since(t0)
	func() {
		defer h.Since(time.Now())
		time.Sleep(2 * time.Millisecond)
	}()
	if h.Count() != 2 || r.Total("a") < 4*time.Millisecond {
		t.Fatalf("count = %d, total = %v", h.Count(), r.Total("a"))
	}
	if r.Total("missing") != 0 {
		t.Fatal("missing timer nonzero")
	}
}

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	r.Counter("x").Add(4)
	if r.Count("x") != 7 {
		t.Fatalf("count = %d", r.Count("x"))
	}
	r.Reset()
	if r.Count("x") != 0 || r.Total("a") != 0 {
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
	if r.Count("n") != 800 || r.Total("t") != 800*time.Microsecond {
		t.Fatalf("count = %d, total = %v", r.Count("n"), r.Total("t"))
	}
}
