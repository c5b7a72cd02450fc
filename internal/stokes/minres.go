package stokes

import "math"

// Preconditioner is the block-diagonal preconditioner of the paper's Rhea
// (§IV.A): "preconditioned in the (1,1) block by one V-cycle of the
// algebraic multigrid solver ... and in the (2,2) block by a mass matrix
// (with inverse viscosity) approximation of the pressure Schur complement".
type Preconditioner struct {
	op  *Operator
	amg *AMG

	rv, zv, pres []float64 // Apply's scratch: velocity blocks, pressure
}

// NewPreconditioner builds the AMG hierarchy and the Schur diagonal.
func NewPreconditioner(op *Operator) *Preconditioner {
	tr := op.F.Comm.Tracer()
	tr.Begin("amg_setup")
	defer tr.End()
	nn := op.NN
	return &Preconditioner{op: op, amg: NewAMG(op),
		rv: make([]float64, 3*nn), zv: make([]float64, 3*nn), pres: make([]float64, nn)}
}

// Apply computes z = M^{-1} r: one AMG V-cycle on the velocity block (per
// rank, combined additively across ranks) and the inverse lumped
// (1/viscosity) pressure mass on the pressure block. Collective.
func (p *Preconditioner) Apply(r, z []float64) {
	tr := p.op.F.Comm.Tracer()
	tr.Begin("vcycle")
	defer tr.End()
	nn := p.op.NN
	rv, zv, pres := p.rv, p.zv, p.pres
	for i := 0; i < nn; i++ {
		rv[3*i] = r[4*i]
		rv[3*i+1] = r[4*i+1]
		rv[3*i+2] = r[4*i+2]
	}
	p.amg.VCycle(rv, zv)
	for i := 0; i < nn; i++ {
		z[4*i] = zv[3*i]
		z[4*i+1] = zv[3*i+1]
		z[4*i+2] = zv[3*i+2]
		z[4*i+3] = r[4*i+3] / p.op.schurDiag[i]
	}
	// Combine the per-rank velocity corrections additively (overlapping
	// additive Schwarz over the shared nodes); the pressure diagonal is
	// already assembled, so keep one copy by averaging is not needed —
	// instead sum only the velocity part and restore pressure after.
	for i := 0; i < nn; i++ {
		pres[i] = z[4*i+3]
	}
	p.op.Nodes.AssembleSumVec(4, z)
	for i := 0; i < nn; i++ {
		z[4*i+3] = pres[i]
	}
}

// MINRES solves K x = b with the preconditioned minimal-residual method
// (Paige & Saunders), returning the iteration count and the final
// preconditioned residual norm. x holds the initial guess on entry.
// apply and prec must be collective; dot must be a global inner product.
func MINRES(n int,
	apply func(x, y []float64),
	prec func(r, z []float64),
	dot func(x, y []float64) float64,
	b, x []float64, tol float64, maxIter int,
) (iters int, relres float64) {
	r1 := make([]float64, n)
	r2 := make([]float64, n)
	y := make([]float64, n)
	w := make([]float64, n)
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	v := make([]float64, n)
	tmp := make([]float64, n)

	apply(x, tmp)
	for i := range r1 {
		r1[i] = b[i] - tmp[i]
	}
	copy(r2, r1)
	prec(r1, y)
	beta1 := dot(r1, y)
	if beta1 < 0 {
		panic("stokes: preconditioner not positive definite")
	}
	if beta1 == 0 {
		return 0, 0
	}
	beta1 = math.Sqrt(beta1)

	var oldb, beta, dbar, epsln, oldeps float64
	beta = beta1
	var phibar = beta1
	var rhs1 = beta1
	var rhs2, tnorm2 float64
	var cs, sn = -1.0, 0.0
	var gmax, gmin = 0.0, math.MaxFloat64
	_ = gmax
	_ = gmin

	for iters = 1; iters <= maxIter; iters++ {
		s := 1 / beta
		for i := range v {
			v[i] = s * y[i]
		}
		apply(v, y)
		if iters >= 2 {
			f := beta / oldb
			for i := range y {
				y[i] -= f * r1[i]
			}
		}
		alfa := dot(v, y)
		f := alfa / beta
		for i := range y {
			y[i] -= f * r2[i]
		}
		copy(r1, r2)
		copy(r2, y)
		prec(r2, y)
		oldb = beta
		beta = dot(r2, y)
		if beta < 0 {
			panic("stokes: preconditioner lost positive definiteness")
		}
		beta = math.Sqrt(beta)
		tnorm2 += alfa*alfa + oldb*oldb + beta*beta

		oldeps = epsln
		delta := cs*dbar + sn*alfa
		gbar := sn*dbar - cs*alfa
		epsln = sn * beta
		dbar = -cs * beta

		gamma := math.Sqrt(gbar*gbar + beta*beta)
		if gamma == 0 {
			gamma = 1e-300
		}
		cs = gbar / gamma
		sn = beta / gamma
		phi := cs * phibar
		phibar = sn * phibar

		denom := 1 / gamma
		for i := range w {
			w1[i] = w2[i]
			w2[i] = w[i]
			w[i] = (v[i] - oldeps*w1[i] - delta*w2[i]) * denom
			x[i] += phi * w[i]
		}

		relres = phibar / beta1
		if relres <= tol {
			break
		}
		rhs1 = rhs2
		rhs2 = 0
		_ = rhs1
	}
	if iters > maxIter {
		iters = maxIter
	}
	return iters, relres
}
