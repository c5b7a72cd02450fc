package mangll

import (
	"fmt"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// BenchmarkMeshBuild measures dG mesh construction (geometry, metric
// terms, face links, ghost exchange setup) per element.
func BenchmarkMeshBuild(b *testing.B) {
	conn := connectivity.Shell(0.55, 1.0)
	for _, deg := range []int{3, 6} {
		b.Run(fmt.Sprintf("N%d", deg), func(b *testing.B) {
			mpi.Run(1, func(c *mpi.Comm) {
				f := core.New(c, conn, 2)
				f.Balance(core.BalanceFull)
				g := f.Ghost()
				l := NewLGL(deg)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					NewMesh(f, g, l)
				}
				b.StopTimer()
				b.ReportMetric(float64(f.NumGlobal()), "elements")
			})
		})
	}
}

// BenchmarkApplyD measures the tensor-product spectral differentiation
// kernel that dominates every dG right-hand side.
func BenchmarkApplyD(b *testing.B) {
	conn := connectivity.UnitCube()
	for _, deg := range []int{3, 6} {
		b.Run(fmt.Sprintf("N%d", deg), func(b *testing.B) {
			mpi.Run(1, func(c *mpi.Comm) {
				f := core.New(c, conn, 1)
				g := f.Ghost()
				m := NewMesh(f, g, NewLGL(deg))
				u := make([]float64, m.Np)
				out := make([]float64, m.Np)
				for i := range u {
					u[i] = float64(i % 7)
				}
				w := m.SerialWork()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.ApplyD(i%3, u, out)
				}
				// 2(N+1) ops per node per direction.
				b.ReportMetric(float64(2*m.Np1*m.Np), "flops/op")
			})
		})
	}
}

// BenchmarkHangingFaceInterp measures the 2:1 mortar interpolation.
func BenchmarkHangingFaceInterp(b *testing.B) {
	conn := connectivity.UnitCube()
	mpi.Run(1, func(c *mpi.Comm) {
		f := core.New(c, conn, 1)
		f.Refine(false, 3, func(o octant.Octant) bool { return o.ChildID() == 0 })
		f.Balance(core.BalanceFull)
		g := f.Ghost()
		m := NewMesh(f, g, NewLGL(4))
		var link *FaceLink
		for li := range m.Links {
			if m.Links[li].Kind == LinkToCoarse {
				link = &m.Links[li]
				break
			}
		}
		if link == nil {
			b.Fatal("no hanging face in benchmark mesh")
		}
		field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
		out := make([]float64, m.Nf)
		w := m.SerialWork()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.FaceValues(link, 1, 0, field, out)
		}
	})
}

// BenchmarkTransferFields measures refine-direction solution transfer.
func BenchmarkTransferFields(b *testing.B) {
	conn := connectivity.UnitCube()
	mpi.Run(1, func(c *mpi.Comm) {
		f := core.New(c, conn, 2)
		g := f.Ghost()
		m := NewMesh(f, g, NewLGL(3))
		old := append([]octant.Octant(nil), f.Local...)
		data := make([]float64, len(old)*m.Np)
		f.Refine(false, octant.MaxLevel, func(octant.Octant) bool { return true })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.TransferFields(old, data, f.Local, 1)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(f.Local)), "elements")
	})
}
