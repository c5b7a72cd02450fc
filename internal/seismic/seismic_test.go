package seismic

import (
	"math"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/raceflag"
)

// setPlaneWave initializes an elastic plane wave with wave vector kv,
// polarization d (unit), and speed taken from the material at each node:
// v = -omega d cos(k.x), E = sym(d k) cos(k.x). Exact for homogeneous
// media.
func (s *Solver) setPlaneWave(kv, d [3]float64, omega float64) {
	m := s.Mesh
	for i := 0; i < m.NumLocal*m.Np; i++ {
		phase := kv[0]*m.X[0][i] + kv[1]*m.X[1][i] + kv[2]*m.X[2][i]
		cp := math.Cos(phase)
		q := s.Q[i*NC:]
		q[0] = -omega * d[0] * cp
		q[1] = -omega * d[1] * cp
		q[2] = -omega * d[2] * cp
		q[3] = d[0] * kv[0] * cp
		q[4] = d[1] * kv[1] * cp
		q[5] = d[2] * kv[2] * cp
		q[6] = (d[1]*kv[2] + d[2]*kv[1]) / 2 * cp
		q[7] = (d[0]*kv[2] + d[2]*kv[0]) / 2 * cp
		q[8] = (d[0]*kv[1] + d[1]*kv[0]) / 2 * cp
	}
	s.Time = 0
}

// planeWaveError returns the global L2 error of the velocity fields
// against the exact translated plane wave at the current time.
func (s *Solver) planeWaveError(kv, d [3]float64, omega float64) float64 {
	m := s.Mesh
	return math.Sqrt(s.integrate(func(idx int) float64 {
		phase := kv[0]*m.X[0][idx] + kv[1]*m.X[1][idx] + kv[2]*m.X[2][idx] - omega*s.Time
		cp := math.Cos(phase)
		var e2 float64
		for a := 0; a < 3; a++ {
			dd := s.Q[idx*NC+a] - (-omega * d[a] * cp)
			e2 += dd * dd
		}
		return e2
	}))
}

func TestPREMSpotValues(t *testing.T) {
	rho, vp, vs := PREM(0)
	if math.Abs(rho-13.0885) > 1e-9 || math.Abs(vp-11.2622) > 1e-9 || math.Abs(vs-3.6678) > 1e-9 {
		t.Fatalf("center: %v %v %v", rho, vp, vs)
	}
	rho, vp, vs = PREM(EarthRadiusKm)
	if rho != 2.6 || vp != 5.8 || vs != 3.2 {
		t.Fatalf("surface: %v %v %v", rho, vp, vs)
	}
	// Fluid outer core: no shear.
	_, _, vs = PREM(2500)
	if vs != 0 {
		t.Fatalf("outer core vs = %v", vs)
	}
	// CMB density jump: mantle side much lighter than core side.
	rhoCore, _, _ := PREM(3479)
	rhoMantle, _, _ := PREM(3481)
	if rhoCore-rhoMantle < 4 {
		t.Fatalf("no CMB density jump: %v vs %v", rhoCore, rhoMantle)
	}
	// Sanity over the whole range.
	for r := 0.0; r <= EarthRadiusKm; r += 13.7 {
		rho, vp, vs := PREM(r)
		if rho < 1 || rho > 14 || vp < 1 || vp > 14.5 || vs < 0 || vs > 8 {
			t.Fatalf("PREM out of range at r=%v: %v %v %v", r, rho, vp, vs)
		}
	}
}

func TestPREMMaterialSpeeds(t *testing.T) {
	for _, r := range []float64{500, 2000, 4000, 6000, 6360} {
		rho, vp, vs := PREM(r)
		m := PREMMaterial(r)
		if math.Abs(m.Rho-rho) > 1e-12 {
			t.Fatalf("rho mismatch at %v", r)
		}
		if math.Abs(m.Vp()-vp) > 1e-9 || math.Abs(math.Sqrt(m.Mu/m.Rho)-vs) > 1e-9 {
			t.Fatalf("speeds mismatch at %v: %v/%v %v/%v", r, m.Vp(), vp, math.Sqrt(m.Mu/m.Rho), vs)
		}
	}
}

func homogeneous(rho, lam, mu float64) func([3]float64) Material {
	return func([3]float64) Material { return Material{Rho: rho, Lambda: lam, Mu: mu} }
}

func planeWaveSolver(c *mpi.Comm, deg int, level int8) *Solver {
	conn := connectivity.Brick(1, 1, 1, true, true, true)
	f := core.New(c, conn, level)
	f.Balance(core.BalanceFull)
	f.Partition()
	opts := DefaultOptions()
	opts.Degree = deg
	return NewSolver(c, f, opts, homogeneous(1, 1, 1))
}

func TestPlaneWaveAccuracy(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		kv := [3]float64{2 * math.Pi, 0, 0}
		d := [3]float64{1, 0, 0} // P wave
		cp := math.Sqrt(3.0)     // (lambda+2mu)/rho = 3
		omega := cp * 2 * math.Pi

		var errs []float64
		for _, deg := range []int{2, 4} {
			s := planeWaveSolver(c, deg, 2)
			s.setPlaneWave(kv, d, omega)
			if e0 := s.planeWaveError(kv, d, omega); e0 > 1e-10 {
				t.Fatalf("deg %d: initial error %v", deg, e0)
			}
			dt := s.DT()
			for i := 0; i < 10; i++ {
				s.Step(dt)
			}
			errs = append(errs, s.planeWaveError(kv, d, omega))
		}
		if c.Rank() == 0 {
			// N=2 resolves the wave at interpolation-error level; N=4 must
			// be far more accurate (p-convergence of the dG scheme).
			if errs[0] > 1.0 {
				t.Fatalf("deg 2 error too large: %v", errs[0])
			}
			if errs[1] > errs[0]/20 {
				t.Fatalf("no p-convergence: deg2 %v, deg4 %v", errs[0], errs[1])
			}
		}
	})
}

func TestShearPlaneWave(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		kv := [3]float64{2 * math.Pi, 0, 0}
		d := [3]float64{0, 1, 0} // S wave
		cs := 1.0                // mu/rho = 1
		omega := cs * 2 * math.Pi
		s := planeWaveSolver(c, 4, 2)
		s.setPlaneWave(kv, d, omega)
		dt := s.DT()
		for i := 0; i < 10; i++ {
			s.Step(dt)
		}
		// Relative to the S-wave amplitude (omega ~ 6.3), the error must be
		// at discretization level.
		if err := s.planeWaveError(kv, d, omega); err > 5e-3 {
			t.Fatalf("S-wave error %v", err)
		}
	})
}

func TestEnergyStability(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		opts := DefaultOptions()
		opts.Degree = 3
		opts.MinLevel = 1
		opts.MaxLevel = 3
		opts.FreqHz = 0.0008
		s := NewEarthSolver(c, opts)
		// Initial radial velocity pulse mid-mantle.
		m := s.Mesh
		for i := 0; i < m.NumLocal*m.Np; i++ {
			x, y, z := m.X[0][i], m.X[1][i], m.X[2][i]
			dx, dy, dz := x-0.7, y, z
			s.Q[i*NC] = math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * 0.05 * 0.05))
		}
		e0 := s.Energy()
		if e0 <= 0 {
			t.Fatalf("zero initial energy")
		}
		dt := s.DT()
		for i := 0; i < 8; i++ {
			s.Step(dt)
		}
		e1 := s.Energy()
		if math.IsNaN(e1) || e1 > 1.05*e0 {
			t.Fatalf("energy grew: %v -> %v", e0, e1)
		}
	})
}

func TestWavelengthMeshRefinesCrust(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		opts := DefaultOptions()
		opts.Degree = 4
		opts.MinLevel = 1
		opts.MaxLevel = 5
		opts.FreqHz = 0.003
		f := BuildEarthForest(c, opts)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		geom := f.Conn.Geometry()
		maxShallow, maxDeep := int8(0), int8(0)
		for _, o := range f.Local {
			ctr := connectivity.OctantCenter(geom, o)
			r := math.Sqrt(ctr[0]*ctr[0] + ctr[1]*ctr[1] + ctr[2]*ctr[2])
			if r > 0.8 && o.Level > maxShallow {
				maxShallow = o.Level
			}
			if r < 0.6 && o.Level > maxDeep {
				maxDeep = o.Level
			}
		}
		gs := int8(mpi.Allreduce(c, int64(maxShallow), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		}))
		gd := int8(mpi.Allreduce(c, int64(maxDeep), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		}))
		if gs <= gd {
			t.Fatalf("crust (level %d) not finer than mid-mantle (level %d)", gs, gd)
		}
	})
}

func TestWavefrontTracking(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		opts := DefaultOptions()
		opts.Degree = 2
		opts.MinLevel = 1
		opts.MaxLevel = 3
		opts.FreqHz = 0.0006
		s := NewEarthSolver(c, opts)
		m := s.Mesh
		for i := 0; i < m.NumLocal*m.Np; i++ {
			x, y, z := m.X[0][i], m.X[1][i], m.X[2][i]
			dx, dy, dz := x-0.6, y, z
			s.Q[i*NC] = math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * 0.08 * 0.08))
		}
		before := s.F.NumGlobal()
		changed := s.AdaptToWavefront(0.1, 0.01)
		if !changed {
			t.Fatal("wavefront adaptation did nothing")
		}
		if err := s.F.Validate(); err != nil {
			t.Fatal(err)
		}
		after := s.F.NumGlobal()
		if after == before {
			t.Fatalf("element count unchanged: %d", after)
		}
		// Still integrable after adaptation.
		dt := s.DT()
		s.Step(dt)
		if e := s.Energy(); math.IsNaN(e) || e <= 0 {
			t.Fatalf("bad energy after adapt+step: %v", e)
		}
	})
}

// TestDeviceMatchesHost steps the same state on the host (float64) and on
// the device (the same kernels at float32) and bounds their difference by
// the single-precision rounding it should be: a plane wave on a uniform
// periodic brick, and a Ricker-sourced run from rest on the hanging,
// rotated, free-surface mesh, whose every velocity the source has to put
// there.
func TestDeviceMatchesHost(t *testing.T) {
	cases := []struct {
		name  string
		setup func(c *mpi.Comm) *Solver
	}{
		{"plane wave", func(c *mpi.Comm) *Solver {
			s := planeWaveSolver(c, 3, 2)
			s.setPlaneWave([3]float64{2 * math.Pi, 0, 0}, [3]float64{1, 0, 0}, math.Sqrt(3.0)*2*math.Pi)
			return s
		}},
		{"ricker from rest", func(c *mpi.Comm) *Solver {
			s := hangingRotSolver(c)
			clear(s.Q)
			s.Time = 0.5 // near the wavelet's peak at 0.6
			return s
		}},
	}
	for _, tc := range cases {
		mpi.Run(2, func(c *mpi.Comm) {
			host := tc.setup(c)
			q0, t0 := append([]float64(nil), host.Q...), host.Time
			dt := host.DT()
			const steps = 5
			for i := 0; i < steps; i++ {
				host.Step(dt)
			}
			hostQ := append([]float64(nil), host.Q...)
			copy(host.Q, q0)
			host.Time = t0
			dev := NewDevice(host)
			if dev.TransferSec < 0 {
				t.Errorf("%s: no transfer time recorded", tc.name)
			}
			for i := 0; i < steps; i++ {
				dev.Step(dt)
			}
			for i, v := range dev.Q {
				host.Q[i] = float64(v)
			}
			var maxDiff, scale float64
			for i := range hostQ {
				maxDiff = max(maxDiff, math.Abs(hostQ[i]-host.Q[i]))
				scale = max(scale, math.Abs(hostQ[i]))
			}
			maxDiff = mpi.AllreduceMax(c, maxDiff)
			scale = mpi.AllreduceMax(c, scale)
			if c.Rank() != 0 {
				return
			}
			t.Logf("%s: max |host - device| = %.3g of scale %.3g (%.3g)", tc.name, maxDiff, scale, maxDiff/scale)
			if scale == 0 || maxDiff > deviceTol*scale {
				t.Errorf("%s: device diverges from host: maxdiff %v (scale %v)", tc.name, maxDiff, scale)
			}
		})
	}
}

// deviceTol bounds the float32 device's deviation from the host after
// five steps, relative to the largest value: ten times the largest
// measured, 1.29e-7 (about one float32 rounding of the largest value).
const deviceTol = 1.3e-6

// TestDeviceStepAllocs pins a device step at zero steady-state allocations
// on the mesh that takes every branch of the kernels.
func TestDeviceStepAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	mpi.RunOpt(1, mpi.RunOptions{Workers: 1}, func(c *mpi.Comm) {
		s := hangingRotSolver(c)
		d := NewDevice(s)
		dt := s.DT()
		d.Step(dt) // warm up the integrator registers
		if allocs := testing.AllocsPerRun(3, func() { d.Step(dt) }); allocs != 0 {
			t.Fatalf("Device.Step allocates %v times per call, want 0", allocs)
		}
	})
}

func TestFlopsPerStepPositive(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := planeWaveSolver(c, 4, 2)
		f := s.FlopsPerStep()
		if f <= 0 {
			t.Fatalf("flops = %v", f)
		}
	})
}
