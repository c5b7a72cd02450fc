package stokes

import (
	"testing"

	"repro/internal/mpi"
)

// BenchmarkMatvec measures the matrix-free saddle-point operator apply.
func BenchmarkMatvec(b *testing.B) {
	mpi.Run(1, func(c *mpi.Comm) {
		_, op := buildCubeOp(c, 3, constEta)
		n := 4 * op.NN
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.Apply(x, y)
		}
		b.StopTimer()
		b.ReportMetric(float64(op.NN), "nodes")
	})
}

// BenchmarkVCycle measures one AMG V-cycle on the viscous block — the
// operation that dominates the paper's Figure 7 runtime split.
func BenchmarkVCycle(b *testing.B) {
	mpi.Run(1, func(c *mpi.Comm) {
		_, op := buildCubeOp(c, 3, constEta)
		amg := NewAMG(op)
		n := 3 * op.NN
		r := make([]float64, n)
		z := make([]float64, n)
		for i := range r {
			r[i] = float64(i%7) - 3
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			amg.VCycle(r, z)
		}
		b.StopTimer()
		b.ReportMetric(float64(amg.levels[0].a.n), "fine-rows")
		b.ReportMetric(float64(len(amg.levels)+1), "levels")
	})
}

// BenchmarkAMGSetup measures hierarchy construction (assembly,
// aggregation, Galerkin products); the paper notes setup amortizes over
// hundreds of MINRES iterations.
func BenchmarkAMGSetup(b *testing.B) {
	mpi.Run(1, func(c *mpi.Comm) {
		_, op := buildCubeOp(c, 3, constEta)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewAMG(op)
		}
	})
}

// BenchmarkElementMatrices measures the per-element integration of the
// stabilized Q1-Q1 operators.
func BenchmarkElementMatrices(b *testing.B) {
	eg := ElemGeom{
		{0, 0, 0}, {1, 0, 0}, {0, 1.1, 0}, {1, 1, 0},
		{0, 0, 0.9}, {1, 0, 1}, {0, 1, 1}, {1.05, 1.1, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildElemMatrices(&eg, 1.5)
	}
}
