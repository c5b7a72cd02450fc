package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// BenchmarkBalanceKinds is the ablation DESIGN.md calls out: the cost of
// the 2:1 balance constraint by connectivity scope (faces only, +edges,
// +corners). The paper's Balance respects all three.
func BenchmarkBalanceKinds(b *testing.B) {
	conn := connectivity.SixRotCubes()
	for _, tc := range []struct {
		name string
		kind BalanceKind
	}{
		{"face", BalanceFace},
		{"face+edge", BalanceFaceEdge},
		{"full", BalanceFull},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var balSec float64
			var octs int64
			for i := 0; i < b.N; i++ {
				mpi.Run(2, func(c *mpi.Comm) {
					f := New(c, conn, 1)
					f.Refine(true, 4, fractalRefine(4))
					c.Barrier()
					t0 := time.Now()
					f.Balance(tc.kind)
					d := mpi.AllreduceMax(c, time.Since(t0).Seconds())
					if c.Rank() == 0 {
						balSec += d
						octs = f.NumGlobal()
					}
				})
			}
			b.ReportMetric(balSec/float64(b.N), "balance-s")
			b.ReportMetric(float64(octs), "octants")
		})
	}
}

// BenchmarkBalance measures the recursive two-phase Balance (local
// subtree pass + bounded demand exchanges) at emulated high rank counts
// on the Figure-4 fractal workload. The exchange-round and message
// metrics matter as much as the wall time: on a serialized host the
// goroutine ranks share cores, so structural communication counts are
// the transferable signal.
func BenchmarkBalance(b *testing.B) {
	conn := connectivity.SixRotCubes()
	for _, p := range []int{64, 256} {
		b.Run(fmt.Sprintf("ranks%d", p), func(b *testing.B) {
			var balSec float64
			var octs, msgs int64
			var rounds int
			for i := 0; i < b.N; i++ {
				mpi.Run(p, func(c *mpi.Comm) {
					f := New(c, conn, 1)
					f.Refine(true, 5, fractalRefine(5))
					f.Partition()
					c.ResetStats()
					c.Barrier()
					t0 := time.Now()
					f.Balance(BalanceFull)
					d := mpi.AllreduceMax(c, time.Since(t0).Seconds())
					m := mpi.AllreduceSum(c, c.TagStat(TagBalance).MsgsSent)
					if c.Rank() == 0 {
						balSec += d
						octs = f.NumGlobal()
						msgs = m
						rounds = f.BalanceRounds
					}
				})
			}
			b.ReportMetric(balSec/float64(b.N), "balance-s")
			b.ReportMetric(float64(octs), "octants")
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(rounds), "exchange-rounds")
		})
	}
}

// BenchmarkGhost measures the recursive boundary-traversal Ghost at
// emulated high rank counts on the balanced Figure-4 fractal workload.
func BenchmarkGhost(b *testing.B) {
	conn := connectivity.SixRotCubes()
	for _, p := range []int{64, 256} {
		b.Run(fmt.Sprintf("ranks%d", p), func(b *testing.B) {
			var ghostSec float64
			var ghosts, msgs int64
			for i := 0; i < b.N; i++ {
				mpi.Run(p, func(c *mpi.Comm) {
					f := New(c, conn, 1)
					f.Refine(true, 5, fractalRefine(5))
					f.Partition()
					f.Balance(BalanceFull)
					c.ResetStats()
					c.Barrier()
					t0 := time.Now()
					g := f.Ghost()
					d := mpi.AllreduceMax(c, time.Since(t0).Seconds())
					m := mpi.AllreduceSum(c, c.TagStat(TagGhost).MsgsSent)
					tot := mpi.AllreduceSum(c, int64(len(g.Octants)))
					if c.Rank() == 0 {
						ghostSec += d
						ghosts = tot
						msgs = m
					}
				})
			}
			b.ReportMetric(ghostSec/float64(b.N), "ghost-s")
			b.ReportMetric(float64(ghosts), "ghosts")
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkPartitionSkewed measures the redistribution of a maximally
// skewed forest (all refinement on one tree) back to equal curve segments.
func BenchmarkPartitionSkewed(b *testing.B) {
	conn := connectivity.Shell(0.55, 1.0)
	for _, p := range []int{2, 8} {
		b.Run(fmt.Sprintf("ranks%d", p), func(b *testing.B) {
			var partSec float64
			var moved int64
			for i := 0; i < b.N; i++ {
				mpi.Run(p, func(c *mpi.Comm) {
					f := New(c, conn, 1)
					f.Refine(true, 4, func(o octant.Octant) bool {
						return o.Tree == 0 && o.Level < 4
					})
					c.Barrier()
					t0 := time.Now()
					sent := f.Partition()
					d := mpi.AllreduceMax(c, time.Since(t0).Seconds())
					tot := mpi.AllreduceSum(c, sent)
					if c.Rank() == 0 {
						partSec += d
						moved = tot
					}
				})
			}
			b.ReportMetric(partSec/float64(b.N), "partition-s")
			b.ReportMetric(float64(moved), "octants-moved")
		})
	}
}

// BenchmarkGhostAndNodes measures the two communication-heavy phases on a
// balanced fractal forest.
func BenchmarkGhostAndNodes(b *testing.B) {
	conn := connectivity.SixRotCubes()
	run := func(b *testing.B, phase string) {
		var sec float64
		for i := 0; i < b.N; i++ {
			mpi.Run(4, func(c *mpi.Comm) {
				f := New(c, conn, 1)
				f.Refine(true, 3, fractalRefine(3))
				f.Balance(BalanceFull)
				f.Partition()
				g := f.Ghost()
				c.Barrier()
				t0 := time.Now()
				switch phase {
				case "ghost":
					f.Ghost()
				case "nodes":
					f.Nodes(g)
				}
				d := mpi.AllreduceMax(c, time.Since(t0).Seconds())
				if c.Rank() == 0 {
					sec += d
				}
			})
		}
		b.ReportMetric(sec/float64(b.N), phase+"-s")
	}
	for _, phase := range []string{"ghost", "nodes"} {
		b.Run(phase, func(b *testing.B) { run(b, phase) })
	}
}

// BenchmarkNodes measures Nodes on the fig4-fractal forest (SixRotCubes,
// level 2 + 3, 45,912 octants) on two ranks, in seconds per million
// octants: the core.nodes_s_per_moct of the benchmark's traced runs.
func BenchmarkNodes(b *testing.B) {
	conn := connectivity.SixRotCubes()
	var sec float64
	var octs int64
	for i := 0; i < b.N; i++ {
		mpi.Run(2, func(c *mpi.Comm) {
			f := New(c, conn, 2)
			f.Refine(true, 5, fractalRefine(5))
			f.Partition()
			f.Balance(BalanceFull)
			g := f.Ghost()
			c.Barrier()
			t0 := time.Now()
			f.Nodes(g)
			d := mpi.AllreduceMax(c, time.Since(t0).Seconds())
			if c.Rank() == 0 {
				sec += d
				octs = f.NumGlobal()
			}
		})
	}
	b.ReportMetric(sec/float64(b.N)/(float64(octs)/1e6), "s/Moct")
}

// BenchmarkOwnerSearch measures the O(log P) shared-meta-data owner lookup
// the space-filling curve enables.
func BenchmarkOwnerSearch(b *testing.B) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, conn, 2)
		leaves := f.Local
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = f.OwnerOfPosition(markerOf(leaves[i%len(leaves)]))
		}
	})
}

// BenchmarkLeafSearch measures the O(log N) local binary search the
// space-filling curve total order enables (paper §II.B).
func BenchmarkLeafSearch(b *testing.B) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, conn, 3)
		leaves := f.Local
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := leaves[(i*2654435761)%len(leaves)]
			if f.FindLeaf(q) < 0 {
				b.Fatal("missing leaf")
			}
		}
	})
}
