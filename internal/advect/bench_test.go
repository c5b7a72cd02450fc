package advect

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// benchOpts fixes a uniform level-2 shell (MaxLevel == Level suppresses the
// initial adaptation loop) so every variant steps the identical mesh.
func benchOpts() Options {
	o := DefaultOptions()
	o.Degree = 3
	o.Level = 2
	o.MaxLevel = 2
	return o
}

// BenchmarkAdvectStep measures one RK step of the advection solver per
// rank count. "overlap" names the schedule: the split-phase ghost exchange
// with volume and interior-face kernels between Start and Finish.
// The P∈{1,2,4,8} sweep is the strong-scaling curve; P64 is the deep
// oversubscription case. Run with -benchmem: steady-state
// allocs/op is pinned by the tests and must stay at zero for P=1. The
// bndfrac metric is the fraction of local elements touching a partition
// boundary — the share of face work that cannot overlap with
// communication. The /wN sub-cases add the per-rank kernel worker pool;
// unsuffixed names run at one worker.
func BenchmarkAdvectStep(b *testing.B) {
	step := func(p, workers int) func(b *testing.B) {
		return func(b *testing.B) {
			mpi.RunOpt(p, mpi.RunOptions{Workers: workers}, func(c *mpi.Comm) {
				s := NewShell(c, benchOpts())
				dt := s.DT()
				s.Step(dt) // warm up scratch and integrator registers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				b.StopTimer()
				if c.Rank() == 0 {
					m := s.Mesh
					b.ReportMetric(float64(len(m.BoundaryElems))/float64(m.NumLocal), "bndfrac")
				}
			})
		}
	}
	for _, p := range []int{1, 2, 4, 8, 64} {
		b.Run(fmt.Sprintf("P%d/overlap", p), step(p, 1))
	}
	// The workers axis at fixed P: pool fan-out within each rank. P4/w4
	// oversubscribes 16-way on small hosts — the interesting comparison is
	// against P4/overlap at w=1.
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("P1/overlap/w%d", w), step(1, w))
		b.Run(fmt.Sprintf("P4/overlap/w%d", w), step(4, w))
	}
}

// BenchmarkAdvectKernel times the two hooks of the advection kernel apart
// from the driver, the exchange and the integrator: one Volume sweep over
// every element, one InteriorFace sweep over every link, on the adapted
// shell at P = 1 (where every link is interior). ns/dof divides by the
// mesh's nodes in both cases; the faces case also reports what share of the
// links the classification skips, shortcuts (inflow) or leaves general —
// the shares its time depends on.
func BenchmarkAdvectKernel(b *testing.B) {
	for _, hook := range []string{"volume", "faces"} {
		b.Run(hook, func(b *testing.B) {
			mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
				s := NewShell(c, smallOpts())
				m, w := s.Mesh, s.Mesh.SerialWork()
				elems := make([]int32, m.NumLocal)
				for e := range elems {
					elems[e] = int32(e)
				}
				links := make([]int32, len(m.Links))
				for li := range links {
					links[li] = int32(li)
				}
				s.kDC = make([]float64, len(s.C))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if hook == "volume" {
						s.kern.Volume(w, elems)
					} else {
						s.kern.InteriorFace(w, links)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.C)), "ns/dof")
				if hook == "faces" {
					boundary, skip, inflow, general := linkCensus(s)
					n := float64(len(links))
					b.ReportMetric(float64(boundary+skip)/n, "skip-share")
					b.ReportMetric(float64(inflow)/n, "inflow-share")
					b.ReportMetric(float64(general)/n, "general-share")
				}
			})
		})
	}
}

// BenchmarkAdvectStepFaultPath measures the enabled-fault-path overhead:
// the same step loop as BenchmarkAdvectStep ("overlap" mode) but with a
// zero-probability fault plan installed, so every message pays for
// sequence numbering and receive-side reassembly without any fault firing.
// Comparing against BenchmarkAdvectStep/P*/overlap gives the cost of
// turning the machinery on; with no plan the hot path is byte-for-byte
// the original code (pinned by the Allocs tests).
// BenchmarkAdvectStepTelemetry measures the live-telemetry overhead: the
// same step loop as BenchmarkAdvectStep ("overlap" mode) but with the full
// stack a `-telemetry` run enables — a bounded ring tracer with its running
// aggregates plus live transport metrics in a sharded world registry.
// Comparing ns/op against BenchmarkAdvectStep/P*/overlap gives the cost of
// leaving telemetry on (EXPERIMENTS.md records it).
func BenchmarkAdvectStepTelemetry(b *testing.B) {
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("P%d/overlap", p), func(b *testing.B) {
			world := metrics.NewSharded(p)
			tr := trace.NewRing(p, 8192)
			mpi.RunOpt(p, mpi.RunOptions{Tracer: tr, Metrics: world}, func(c *mpi.Comm) {
				s := NewShell(c, benchOpts())
				dt := s.DT()
				s.Step(dt) // warm up scratch, histogram lanes, and the aggregates
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				b.StopTimer()
			})
		})
	}
}

func BenchmarkAdvectStepFaultPath(b *testing.B) {
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("P%d/overlap", p), func(b *testing.B) {
			plan := &mpi.FaultPlan{Seed: 1, CrashRank: -1}
			mpi.RunOpt(p, mpi.RunOptions{Plan: plan}, func(c *mpi.Comm) {
				s := NewShell(c, benchOpts())
				dt := s.DT()
				s.Step(dt)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				b.StopTimer()
			})
		})
	}
}
