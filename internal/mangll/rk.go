package mangll

// LSRK45 is the five-stage fourth-order low-storage Runge-Kutta scheme of
// Carpenter & Kennedy (1994), the time integrator the paper uses for both
// the advection and the seismic wave propagation solvers (§III.B, §IV.B),
// over a state of precision T. Time, step and coefficients stay float64;
// the register update runs in T.
type LSRK45Of[T Float] struct {
	res []T // 2N-storage residual register
	du  []T // scratch for the RHS evaluation, zero whenever rhs is called

	// ForRange, if set, runs the integrator's register update over the
	// state in chunks — Mesh.ForRange, so it uses the rank's pool like the
	// kernels between them; nil runs it inline. The update is element-wise,
	// so chunking cannot change it.
	ForRange func(n int, fn func(w *Work, lo, hi int))

	// Operands of the update in flight and the update, built once so that
	// Step allocates nothing.
	u        []T
	a, b, dt float64
	update   func(w *Work, lo, hi int)
}

// LSRK45 is the double-precision integrator of the host solvers.
type LSRK45 = LSRK45Of[float64]

var lsrkA = [5]float64{
	0,
	-567301805773.0 / 1357537059087.0,
	-2404267990393.0 / 2016746695238.0,
	-3550918686646.0 / 2091501179385.0,
	-1275806237668.0 / 842570457699.0,
}

var lsrkB = [5]float64{
	1432997174477.0 / 9575080441755.0,
	5161836677717.0 / 13612068292357.0,
	1720146321549.0 / 2090206949498.0,
	3134564353537.0 / 4481467310338.0,
	2277821191437.0 / 14882151754819.0,
}

var lsrkC = [5]float64{
	0,
	1432997174477.0 / 9575080441755.0,
	2526269341429.0 / 6820363962896.0,
	2006345519317.0 / 3224310063776.0,
	2802321613138.0 / 2924317926251.0,
}

// Step advances u from t to t+dt. rhs must accumulate du/dt for state u at
// time tt into du, scratch owned by the integrator that is zero at every
// call: Step clears it once, and each stage's update sets every du[i] it
// has read back to zero, so no stage pays a pass of its own to clear it.
// Only the locally owned portion of u should be integrated; rhs is
// responsible for any ghost exchange it needs.
func (r *LSRK45Of[T]) Step(u []T, t, dt float64, rhs func(tt float64, u, du []T)) {
	if r.update == nil {
		r.update = func(_ *Work, lo, hi int) {
			u, res, du := r.u[lo:hi], r.res[lo:hi], r.du[lo:hi]
			a, b, dt := T(r.a), T(r.b), T(r.dt)
			for i := range u {
				res[i] = a*res[i] + dt*du[i]
				u[i] += b * res[i]
				du[i] = 0
			}
		}
	}
	// The state changes length at every adapt.
	r.res, r.du = Resize(r.res, len(u)), Resize(r.du, len(u))
	clear(r.res)
	clear(r.du)
	r.u, r.dt = u, dt
	for s := 0; s < 5; s++ {
		rhs(t+lsrkC[s]*dt, u, r.du)
		r.a, r.b = lsrkA[s], lsrkB[s]
		if r.ForRange == nil {
			r.update(nil, 0, len(u))
		} else {
			r.ForRange(len(u), r.update)
		}
	}
	r.u = nil
}
