// Package seismic reproduces the paper's dGea application (§IV.B): global
// seismic wave propagation through heterogeneous elastic media in
// first-order velocity-strain form, discretized with a high-order nodal
// discontinuous Galerkin method (upwind-type dissipative flux) on
// forest-of-octrees meshes that are adapted to the local seismic
// wavelength of the PREM earth model, integrated with LSRK4(5), with both a
// double-precision host backend and a single-precision "device" backend
// that mirrors the paper's hybrid CPU-GPU version.
package seismic

import "math"

// EarthRadiusKm is the PREM surface radius.
const EarthRadiusKm = 6371.0

// Material holds the isotropic elastic parameters at a point:
// density (g/cm^3) and the Lame parameters (GPa-equivalent in PREM's
// km/s-g/cm^3 unit system: rho*v^2).
type Material struct {
	Rho, Lambda, Mu float64
}

// Vp returns the P-wave speed.
func (m Material) Vp() float64 { return math.Sqrt((m.Lambda + 2*m.Mu) / m.Rho) }

// premLayer is one radial polynomial layer of PREM: value = sum c_i x^i
// with x = r / 6371 km.
type premLayer struct {
	rTop float64 // outer radius of the layer in km
	rho  [4]float64
	vp   [4]float64
	vs   [4]float64
}

// The isotropic PREM model (Dziewonski & Anderson 1981), from the center
// outward. The ocean layer is replaced by upper crust, as is standard for
// global elastic-only solvers (a fluid ocean has vs = 0).
var premLayers = []premLayer{
	{1221.5, [4]float64{13.0885, 0, -8.8381, 0}, [4]float64{11.2622, 0, -6.3640, 0}, [4]float64{3.6678, 0, -4.4475, 0}},
	{3480.0, [4]float64{12.5815, -1.2638, -3.6426, -5.5281}, [4]float64{11.0487, -4.0362, 4.8023, -13.5732}, [4]float64{0, 0, 0, 0}},
	{3630.0, [4]float64{7.9565, -6.4761, 5.5283, -3.0807}, [4]float64{15.3891, -5.3181, 5.5242, -2.5514}, [4]float64{6.9254, 1.4672, -2.0834, 0.9783}},
	{5600.0, [4]float64{7.9565, -6.4761, 5.5283, -3.0807}, [4]float64{24.9520, -40.4673, 51.4832, -26.6419}, [4]float64{11.1671, -13.7818, 17.4575, -9.2777}},
	{5701.0, [4]float64{7.9565, -6.4761, 5.5283, -3.0807}, [4]float64{29.2766, -23.6027, 5.5242, -2.5514}, [4]float64{22.3459, -17.2473, -2.0834, 0.9783}},
	{5771.0, [4]float64{5.3197, -1.4836, 0, 0}, [4]float64{19.0957, -9.8672, 0, 0}, [4]float64{9.9839, -4.9324, 0, 0}},
	{5971.0, [4]float64{11.2494, -8.0298, 0, 0}, [4]float64{39.7027, -32.6166, 0, 0}, [4]float64{22.3512, -18.5856, 0, 0}},
	{6151.0, [4]float64{7.1089, -3.8045, 0, 0}, [4]float64{20.3926, -12.2569, 0, 0}, [4]float64{8.9496, -4.4597, 0, 0}},
	{6346.6, [4]float64{2.6910, 0.6924, 0, 0}, [4]float64{4.1875, 3.9382, 0, 0}, [4]float64{2.1519, 2.3481, 0, 0}},
	{6356.0, [4]float64{2.900, 0, 0, 0}, [4]float64{6.800, 0, 0, 0}, [4]float64{3.900, 0, 0, 0}},
	{6371.0, [4]float64{2.600, 0, 0, 0}, [4]float64{5.800, 0, 0, 0}, [4]float64{3.200, 0, 0, 0}},
}

func evalPoly(c [4]float64, x float64) float64 {
	return c[0] + x*(c[1]+x*(c[2]+x*c[3]))
}

// PREM evaluates the Preliminary Reference Earth Model at radius r (km):
// density in g/cm^3, vp and vs in km/s.
func PREM(rKm float64) (rho, vp, vs float64) {
	if rKm < 0 {
		rKm = 0
	}
	if rKm > EarthRadiusKm {
		rKm = EarthRadiusKm
	}
	x := rKm / EarthRadiusKm
	for _, l := range premLayers {
		if rKm <= l.rTop {
			return evalPoly(l.rho, x), evalPoly(l.vp, x), evalPoly(l.vs, x)
		}
	}
	l := premLayers[len(premLayers)-1]
	return evalPoly(l.rho, x), evalPoly(l.vp, x), evalPoly(l.vs, x)
}

// PREMMaterial returns the elastic material at radius r (km). In the fluid
// outer core (vs = 0) it returns mu = 0, which the elastic solver treats
// as an acoustic medium within the same velocity-strain framework — the
// unified treatment the paper highlights ("waves propagating in acoustic,
// elastic and coupled acoustic-elastic media within the same framework").
func PREMMaterial(rKm float64) Material {
	rho, vp, vs := PREM(rKm)
	mu := rho * vs * vs
	lambda := rho*vp*vp - 2*mu
	return Material{Rho: rho, Lambda: lambda, Mu: mu}
}

// PREMAt is PREMMaterial as a solver material model on the unit ball
// (radius 1 = the earth's surface): the MatFn of every earth run.
func PREMAt(p [3]float64) Material {
	return PREMMaterial(math.Sqrt(p[0]*p[0]+p[1]*p[1]+p[2]*p[2]) * EarthRadiusKm)
}

// MinWavelengthKm returns the local minimum wavelength (km) at radius r
// for a source frequency f (Hz): the slowest propagating wave speed over
// the frequency. In the fluid core the P speed governs.
func MinWavelengthKm(rKm, freqHz float64) float64 {
	_, vp, vs := PREM(rKm)
	v := vs
	if v < 0.1 { // fluid: no shear waves
		v = vp
	}
	return v / freqHz
}
