package seismic

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
)

// BenchmarkHostVsDeviceStep is the precision-backend ablation: one LSRK
// step of the elastic solver in double precision (host) vs single
// precision (device). On real hardware the device backend maps to the
// paper's ~50x GPU speedup; here it isolates the float32 compute path.
func BenchmarkHostVsDeviceStep(b *testing.B) {
	setup := func(c *mpi.Comm) *Solver {
		s := planeWaveSolver(c, 4, 2)
		s.setPlaneWave([3]float64{6.28, 0, 0}, [3]float64{1, 0, 0}, 6.28)
		return s
	}
	b.Run("host", func(b *testing.B) {
		mpi.Run(1, func(c *mpi.Comm) {
			s := setup(c)
			dt := s.DT()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(dt)
			}
			b.StopTimer()
			b.ReportMetric(s.FlopsPerStep()/1e6, "Mflop/step")
		})
	})
	b.Run("device", func(b *testing.B) {
		mpi.Run(1, func(c *mpi.Comm) {
			s := setup(c)
			d := NewDevice(s)
			dt := s.DT()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Step(dt)
			}
			b.StopTimer()
			b.ReportMetric(d.TransferSec*1e3, "transfer-ms")
		})
	})
}

// BenchmarkSeismicStep measures one RK step of the elastic solver per
// rank count, on a uniform periodic brick. "overlap" names the schedule:
// the split-phase ghost exchange with the volume and interior-face kernels
// between Start and Finish. The P∈{1,2,4,8} sweep is the
// strong-scaling curve for the wave solver. Run
// with -benchmem: steady-state allocs/op is pinned by the tests and must
// stay at zero for P=1. The /wN sub-cases add the per-rank kernel worker
// pool; unsuffixed names ran at one worker.
func BenchmarkSeismicStep(b *testing.B) {
	step := func(p, workers int) func(b *testing.B) {
		return func(b *testing.B) {
			mpi.RunOpt(p, mpi.RunOptions{Workers: workers}, func(c *mpi.Comm) {
				s := overlapSolver(c)
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
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d/overlap", p), step(p, 1))
	}
	// The workers axis at fixed P: pool fan-out inside each rank, compared
	// against the same P at w=1.
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("P1/overlap/w%d", w), step(1, w))
		b.Run(fmt.Sprintf("P4/overlap/w%d", w), step(4, w))
	}
}

// BenchmarkWavelengthMeshing measures the online adaptive mesh generation
// the paper highlights ("this adaptivity must be done online to avoid the
// transfer of massive meshes").
func BenchmarkWavelengthMeshing(b *testing.B) {
	opts := DefaultOptions()
	opts.Degree = 4
	opts.MaxLevel = 4
	opts.FreqHz = 0.002
	mpi.Run(2, func(c *mpi.Comm) {
		b.ResetTimer()
		var elems int64
		for i := 0; i < b.N; i++ {
			f := BuildEarthForest(c, opts)
			elems = f.NumGlobal()
		}
		b.StopTimer()
		if c.Rank() == 0 {
			b.ReportMetric(float64(elems), "elements")
		}
	})
}

// BenchmarkPREM measures the radial model evaluation (hot in material
// sampling during meshing and flux evaluation).
func BenchmarkPREM(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		r := float64(i%6371) + 0.5
		rho, vp, vs := PREM(r)
		sink += rho + vp + vs
	}
	_ = sink
}
