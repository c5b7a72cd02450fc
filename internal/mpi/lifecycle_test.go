package mpi

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// settle polls cond until it holds or the deadline passes; world teardown
// is asynchronous at the edges (pool workers exit on a closed channel
// without being joined), so post-churn measurements need a grace window.
func settle(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorldChurnReleasesResources pins that back-to-back mpi worlds in
// one process fully release their goroutines — the serve scheduler runs
// thousands of worlds per process, so any per-world leak becomes a
// production resource exhaustion. 100 sequential plus 8 concurrent small
// worlds, each with a worker pool and real traffic, then the goroutine
// count must return to (near) where it started.
func TestWorldChurnReleasesResources(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		world := func() {
			RunOpt(3, RunOptions{Workers: 2}, func(c *Comm) {
				// A little of everything: point-to-point ring + collectives.
				next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
				c.Send(next, 7, []float64{float64(c.Rank())})
				p, _ := c.Recv(prev, 7)
				v := p.([]float64)[0] + float64(AllreduceSum(c, 1))
				_ = Allgather(c, v)
				c.Barrier()
			})
		}

		baseGoroutines := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			world()
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				world()
			}()
		}
		wg.Wait()

		// Rank goroutines are joined, pool workers exit asynchronously on
		// their closed wake channels — poll.
		if !settle(10*time.Second, func() bool {
			return runtime.NumGoroutine() <= baseGoroutines+2
		}) {
			t.Fatalf("goroutines = %d after churn, baseline %d (leak)",
				runtime.NumGoroutine(), baseGoroutines)
		}
	})
}
