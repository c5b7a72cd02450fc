package seismic

import (
	"math"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/raceflag"
)

// hangingRotSolver builds the elastic solver on a non-conforming forest of
// the six rotated cubes — tree 0 and the lower half of tree 5 are refined
// once more than the rest, so hanging faces cross inter-tree faces whose
// frames are rotated against each other (tree 0 meets the unrefined half
// of tree 5 through one) — with a graded material, a source, free surfaces
// all around and a smooth state with no zero component, at N = 3.
func hangingRotSolver(c *mpi.Comm) *Solver { return hangingRotSolverDeg(c, 3) }

// hangingRotSolverDeg is hangingRotSolver at degree deg.
func hangingRotSolverDeg(c *mpi.Comm, deg int) *Solver {
	f := core.New(c, connectivity.SixRotCubes(), 1)
	f.Refine(false, 2, func(o octant.Octant) bool { return o.Tree == 0 || o.Tree == 5 && o.Z == 0 })
	f.Balance(core.BalanceFull)
	f.Partition()
	opts := DefaultOptions()
	opts.Degree = deg
	s := NewSolver(c, f, opts, func(p [3]float64) Material {
		r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
		return Material{Rho: 2 + r, Lambda: 1 + p[0]*p[0], Mu: 0.5 + 0.3*r}
	})
	s.Source = RickerSource([3]float64{0.5, 0.5, 0.5}, [3]float64{0, 0, 1}, 2, 1, 0.4)
	m := s.Mesh
	for i := 0; i < m.NumLocal*m.Np; i++ {
		x, y, z := m.X[0][i], m.X[1][i], m.X[2][i]
		for k := 0; k < NC; k++ {
			s.Q[i*NC+k] = math.Sin(float64(k+1)*x+2*y) + math.Cos(3*z-float64(k)*y)
		}
	}
	return s
}

// elementHashes returns one FNV-1a hash per global element, in curve
// order, of the per-element blocks of a local field (rank 0 only).
func elementHashes(c *mpi.Comm, perElem int, data []float64) []uint64 {
	local := make([]uint64, len(data)/perElem)
	for e := range local {
		h := uint64(14695981039346656037)
		for _, v := range data[e*perElem : (e+1)*perElem] {
			h = (h ^ math.Float64bits(v)) * 1099511628211
		}
		local[e] = h
	}
	var all []uint64
	for _, part := range mpi.Gather(c, 0, local) {
		all = append(all, part...)
	}
	return all
}

// TestKernelRankCountIdentity pins rank-count invariance at the kernel: one
// application of the elastic kernel (plus source) on the non-conforming
// rotated cubes gives every element bitwise the same residual for P in
// {1,2,3,5} x workers in {1,2}. The driver hands each element its volume term and
// then its links in ascending order whatever the partition; this is the
// direct check of what the serve crash-migrate test sees only through a
// final hash.
func TestKernelRankCountIdentity(t *testing.T) {
	var want []uint64
	for _, p := range []int{1, 2, 3, 5} {
		for _, w := range []int{1, 2} {
			var got []uint64
			var rotatedHanging int64
			mpi.RunOpt(p, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
				s := hangingRotSolver(c)
				var n int64
				for _, l := range s.Mesh.Links {
					if l.Kind == mangll.LinkToFineQuad && (l.Swap || l.RevI || l.RevJ) {
						n++
					}
				}
				n = mpi.AllreduceSum(c, n)
				dq := make([]float64, len(s.Q))
				s.RHS(0.4, s.Q, dq)
				if h := elementHashes(c, s.Mesh.Np*NC, dq); c.Rank() == 0 {
					got, rotatedHanging = h, n
				}
			})
			if rotatedHanging == 0 {
				t.Fatalf("p=%d: mesh has no hanging face across a rotated tree face", p)
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("p=%d w=%d: %d elements, want %d", p, w, len(got), len(want))
			}
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("p=%d w=%d: residual of global element %d differs from the 1-rank 1-worker run", p, w, e)
				}
			}
		}
	}
}

// TestStepAllocsFusedPath pins a full serial RK step at zero steady-state
// allocations on the mesh that takes every branch of the fused kernels:
// hanging faces both ways, free surfaces, the source sweep.
func TestStepAllocsFusedPath(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := hangingRotSolver(c)
		dt := s.DT()
		s.Step(dt) // warm up integrator registers and scratch
		if allocs := testing.AllocsPerRun(3, func() { s.Step(dt) }); allocs != 0 {
			t.Fatalf("Step allocates %v times per call, want 0", allocs)
		}
	})
}

// TestDegenerateFacePointFluxVanishes hands the flux kernels a face row
// whose middle point has a zero area vector: its flux must be exactly zero
// — not NaN from normalising by zero, and not whatever the scratch row
// held from the previous link — while its neighbours are untouched by it.
func TestDegenerateFacePointFluxVanishes(t *testing.T) {
	geo := []facePoint[float64]{
		newFacePoint([3]float64{0, 0, 2}),
		newFacePoint([3]float64{}),
		newFacePoint([3]float64{0, 3, 4}),
	}
	if geo[1] != (facePoint[float64]{}) {
		t.Fatalf("zero area vector tabulated as %+v", geo[1])
	}
	if geo[2].Area != 5 || geo[2].N != [3]float64{0, 0.6, 0.8} {
		t.Fatalf("area vector (0,3,4) tabulated as %+v", geo[2])
	}
	mat := make([]nodeMat[float64], len(geo))
	qm := make([]float64, len(geo)*NC)
	qp := make([]float64, len(geo)*NC)
	g := make([]float64, len(geo)*NC)
	for fn := range mat {
		mat[fn] = newNodeMat(Material{Rho: 2, Lambda: 1, Mu: 1})
	}
	for i := range qm {
		qm[i], qp[i] = float64(i%5)+1, float64(i%3)-2
	}
	for _, flux := range []struct {
		name string
		fn   func()
	}{
		{"rusanov", func() {
			for fn := range geo {
				rusanovPoint(&geo[fn], &mat[fn], qm[fn*NC:(fn+1)*NC], qp[fn*NC:(fn+1)*NC], (*[NC]float64)(g[fn*NC:]))
			}
		}},
		{"free surface", func() {
			for fn := range geo {
				freeSurfacePoint(&geo[fn], &mat[fn], qm[fn*NC:(fn+1)*NC], (*[NC]float64)(g[fn*NC:]))
			}
		}},
	} {
		for i := range g {
			g[i] = 77 // the previous link's flux
		}
		flux.fn()
		for k := 0; k < NC; k++ {
			if g[NC+k] != 0 {
				t.Errorf("%s: degenerate point has flux %v in component %d", flux.name, g[NC+k], k)
			}
		}
		for _, fn := range []int{0, 2} {
			if g[fn*NC] == 0 || g[fn*NC] == 77 || math.IsNaN(g[fn*NC]) {
				t.Errorf("%s: regular point %d has velocity flux %v", flux.name, fn, g[fn*NC])
			}
		}
	}
}
