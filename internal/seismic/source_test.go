package seismic

import (
	"math"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
)

func TestRickerSourceShape(t *testing.T) {
	src := [3]float64{0, 0, 0.9}
	dir := [3]float64{0, 0, 1}
	f := RickerSource(src, dir, 1.0, 2.0, 0.1)

	// Peak at t0 = 1.2/freq at the source point, pointing along dir.
	peak := f(1.2, src)
	if peak[2] <= 0 || peak[0] != 0 || peak[1] != 0 {
		t.Fatalf("peak = %v", peak)
	}
	if math.Abs(peak[2]-2.0) > 1e-12 {
		t.Fatalf("peak amplitude = %v, want 2", peak[2])
	}
	// Decays in space.
	far := f(1.2, [3]float64{0, 0, 0.9 + 0.35})
	if far != [3]float64{} {
		t.Fatalf("beyond cutoff should be zero: %v", far)
	}
	near := f(1.2, [3]float64{0, 0, 0.95})
	if near[2] <= 0 || near[2] >= peak[2] {
		t.Fatalf("spatial decay wrong: %v vs %v", near[2], peak[2])
	}
	// Ricker wavelet integrates to ~0 over time (zero-mean).
	var sum float64
	dt := 0.01
	for tt := 0.0; tt < 4; tt += dt {
		sum += f(tt, src)[2] * dt
	}
	if math.Abs(sum) > 1e-3*2.0 {
		t.Fatalf("wavelet not zero-mean: %v", sum)
	}
}

func TestStressStrainRelation(t *testing.T) {
	m := newNodeMat(Material{Rho: 3, Lambda: 2, Mu: 5})
	// Pure volumetric strain: sigma = (2 mu + 3 lambda)/3 * tr * I ... with
	// E = I: sigma_ii = 2 mu + 3 lambda? sigma = 2 mu E + lambda tr(E) I:
	// sigma_xx = 2*5*1 + 2*3 = 16.
	e := []float64{1, 1, 1, 0, 0, 0}
	sxx, syy, szz, syz, sxz, sxy := stress(&m, e)
	if sxx != 16 || syy != 16 || szz != 16 || syz != 0 || sxz != 0 || sxy != 0 {
		t.Fatalf("volumetric stress: %v %v %v %v %v %v", sxx, syy, szz, syz, sxz, sxy)
	}
	// Pure shear.
	e = []float64{0, 0, 0, 0.5, 0, 0}
	_, _, _, syz, _, _ = stress(&m, e)
	if syz != 5 {
		t.Fatalf("shear stress = %v, want 5", syz)
	}
}

func TestFluxNormalConsistency(t *testing.T) {
	m := newNodeMat(Material{Rho: 2, Lambda: 1, Mu: 1})
	q := make([]float64, NC)
	for i := range q {
		q[i] = float64(i + 1)
	}
	fn := make([]float64, NC)
	fp := make([]float64, NC)
	n := [3]float64{1, 0, 0}
	fluxNormal(&m, q, n, fn)
	// F(q).(-n) = -F(q).n for a linear flux.
	fluxNormal(&m, q, [3]float64{-1, 0, 0}, fp)
	for c := 0; c < NC; c++ {
		if math.Abs(fn[c]+fp[c]) > 1e-14 {
			t.Fatalf("flux not odd in n at comp %d", c)
		}
	}
	// Strain-row flux depends only on velocity.
	q2 := append([]float64(nil), q...)
	q2[5] = 99 // change a strain component
	f2 := make([]float64, NC)
	fluxNormal(&m, q2, n, f2)
	for c := 3; c < NC; c++ {
		if fn[c] != f2[c] {
			t.Fatalf("strain flux depends on strain at comp %d", c)
		}
	}
	// Velocity-row flux depends only on stress/strain.
	q3 := append([]float64(nil), q...)
	q3[0] = -7
	f3 := make([]float64, NC)
	fluxNormal(&m, q3, n, f3)
	for c := 0; c < 3; c++ {
		if fn[c] != f3[c] {
			t.Fatalf("velocity flux depends on velocity at comp %d", c)
		}
	}
}

func TestMinWavelengthMonotoneInFrequency(t *testing.T) {
	for _, r := range []float64{1000, 3000, 5000, 6300} {
		l1 := MinWavelengthKm(r, 0.001)
		l2 := MinWavelengthKm(r, 0.002)
		if math.Abs(l1-2*l2) > 1e-9*l1 {
			t.Fatalf("wavelength not ~ 1/f at r=%v: %v vs %v", r, l1, l2)
		}
	}
	// The crust has shorter wavelengths than the lower mantle.
	if MinWavelengthKm(6360, 0.001) >= MinWavelengthKm(4000, 0.001) {
		t.Fatal("crust wavelength not shorter than mantle")
	}
}

// TestAcousticPlaneWave runs a P wave through a mu = 0 (fluid) medium: the
// unified velocity-strain framework must handle the acoustic limit, as the
// paper emphasizes for coupled acoustic-elastic earth models.
func TestAcousticPlaneWave(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		conn := connectivity.Brick(1, 1, 1, true, true, true)
		f := core.New(c, conn, 2)
		f.Balance(core.BalanceFull)
		opts := DefaultOptions()
		opts.Degree = 4
		s := NewSolver(c, f, opts, homogeneous(1, 2, 0)) // fluid: cp = sqrt(2)
		kv := [3]float64{2 * math.Pi, 0, 0}
		d := [3]float64{1, 0, 0}
		omega := math.Sqrt(2.0) * 2 * math.Pi
		s.setPlaneWave(kv, d, omega)
		dt := s.DT()
		for i := 0; i < 10; i++ {
			s.Step(dt)
		}
		if err := s.planeWaveError(kv, d, omega); err > 5e-3 || math.IsNaN(err) {
			t.Fatalf("acoustic P-wave error %v", err)
		}
	})
}

func TestReceiverSamplesPlaneWave(t *testing.T) {
	mpi.Run(3, func(c *mpi.Comm) {
		s := planeWaveSolver(c, 4, 2)
		kv := [3]float64{2 * math.Pi, 0, 0}
		d := [3]float64{1, 0, 0}
		omega := math.Sqrt(3.0) * 2 * math.Pi
		s.setPlaneWave(kv, d, omega)
		rec := NewReceiver(0, [3]float64{0.3, 0.6, 0.4})
		dt := s.DT()
		for i := 0; i < 6; i++ {
			s.Sample(rec)
			s.Step(dt)
		}
		s.Sample(rec)
		if len(rec.Times) != 7 || len(rec.V) != 7 {
			t.Fatalf("recorded %d/%d samples", len(rec.Times), len(rec.V))
		}
		// Samples must match the exact plane wave: vx = -omega cos(k.x - w t).
		for i, tt := range rec.Times {
			want := -omega * math.Cos(2*math.Pi*0.3-omega*tt)
			if math.Abs(rec.V[i][0]-want) > 1e-2*omega {
				t.Fatalf("sample %d: %v, want %v", i, rec.V[i][0], want)
			}
			if math.Abs(rec.V[i][1]) > 1e-3*omega {
				t.Fatalf("spurious vy at sample %d: %v", i, rec.V[i][1])
			}
		}
		// All ranks hold identical seismograms.
		sum := 0.0
		for _, v := range rec.V {
			sum += v[0]
		}
		if mx := mpi.AllreduceMax(c, sum); math.Abs(mx-sum) > 1e-12 {
			t.Fatal("seismogram differs across ranks")
		}
	})
}
