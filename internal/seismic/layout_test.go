package seismic

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// fig9Hash is the state hash of the fig9-seismic configuration after 3
// steps (seed 1), at any worker count.
const fig9Hash = 0xec4ba9d714a99341

// TestFig9HashPinned rebuilds the fig9-seismic benchmark's configuration
// — the PREM-adapted earth mesh at N = 3, a radially pointing Ricker source
// under the seed-1 surface point — and pins its state hash after 3 steps,
// serial and on two pool workers: any change to the kernels' summation
// order shows up here, not only in the benchmark's notes.
func TestFig9HashPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the 4,704-element mesh takes over a minute under -race")
	}
	opts := DefaultOptions()
	opts.Degree, opts.MaxLevel, opts.FreqHz = 3, 4, 0.003
	rng := rand.New(rand.NewSource(1))
	z := 2*rng.Float64() - 1
	phi := 2 * math.Pi * rng.Float64()
	r := math.Sqrt(1 - z*z)
	dir := [3]float64{r * math.Cos(phi), r * math.Sin(phi), z}
	src := RickerSource([3]float64{0.9 * dir[0], 0.9 * dir[1], 0.9 * dir[2]}, dir, opts.FreqHz*500, 1, 0.05)
	for _, w := range []int{1, 2} {
		mpi.RunOpt(1, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
			s := NewEarthSolver(c, opts)
			s.Source = src
			dt := s.DT()
			for i := 0; i < 3; i++ {
				s.Step(dt)
			}
			if h := s.FieldHash(); h != fig9Hash {
				t.Errorf("workers=%d: hash after 3 steps %#016x, want %#016x", w, h, uint64(fig9Hash))
			}
		})
	}
}

// TestStateIsBufferHead checks the in-place layout: Q is the head of the
// local+ghost array the kernels read, after construction, after an adapt
// cycle that changes the mesh and after a resume, and RHS refuses any
// other input.
func TestStateIsBufferHead(t *testing.T) {
	check := func(s *Solver, when string) {
		t.Helper()
		m := s.Mesh
		if want := m.NumLocal * m.Np * NC; len(s.Q) != want {
			t.Errorf("%s: len(Q) = %d, want %d", when, len(s.Q), want)
		}
		if len(s.Q) == 0 || &s.Q[0] != &s.k.buf[0] {
			t.Errorf("%s: Q is not the head of the local+ghost array", when)
		}
	}
	base := filepath.Join(t.TempDir(), "seis")
	conn := connectivity.Brick(1, 1, 1, true, true, true)
	opts := DefaultOptions()
	opts.Degree, opts.MinLevel, opts.MaxLevel = 2, 1, 3
	mpi.Run(2, func(c *mpi.Comm) {
		f := core.New(c, conn, 2)
		f.Partition()
		s := NewSolver(c, f, opts, homogeneous(1, 1, 1))
		check(s, "NewSolver")
		s.setPlaneWave([3]float64{2 * math.Pi, 0, 0}, [3]float64{1, 0, 0}, math.Sqrt(3.0)*2*math.Pi)
		if !s.AdaptToWavefront(0.9, 0.5) {
			t.Errorf("the adapt cycle left the mesh unchanged")
		}
		check(s, "AdaptToWavefront")
		s.Step(s.DT())
		if err := s.SaveCheckpoint(base, 1); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		r, _, err := Resume(c, conn, opts, homogeneous(1, 1, 1), nil, base)
		if err != nil {
			t.Errorf("resume: %v", err)
			return
		}
		check(r, "Resume")
		if r.FieldHash() != s.FieldHash() {
			t.Errorf("resumed state hash differs from the saved one")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RHS on a copy of Q did not panic")
				}
			}()
			s.RHS(s.Time, append([]float64(nil), s.Q...), make([]float64, len(s.Q)))
		}()
	})
}

// TestSolverBytesPerNodeAlloc bounds what building a solver and taking its
// first step allocate, per local node, on a small earth mesh: the mesh and
// its tables, the local+ghost array whose head is the state, and the
// integrator's two registers. A second copy of the state (9 float64 per
// node, 72 B) would not fit under the bound.
func TestSolverBytesPerNodeAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes differ under -race")
	}
	opts := DefaultOptions()
	opts.Degree, opts.MaxLevel = 3, 3
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		f := BuildEarthForest(c, opts)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := NewSolver(c, f, opts, PREMAt)
		s.Step(s.DT())
		runtime.ReadMemStats(&m1)
		nodes := s.Mesh.NumLocal * s.Mesh.Np
		per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(nodes)
		t.Logf("NewSolver + first Step: %.0f B per node (%d nodes)", per, nodes)
		if per > solverBytesPerNode {
			t.Errorf("NewSolver + first Step allocate %.0f B per node, want at most %d", per, solverBytesPerNode)
		}
	})
}

// solverBytesPerNode is the bound of TestSolverBytesPerNodeAlloc: 449 B
// measured (952 elements at N = 3) with under 5 % headroom. With the state
// in an array of its own beside the local+ghost one it was 521 B.
const solverBytesPerNode = 470
