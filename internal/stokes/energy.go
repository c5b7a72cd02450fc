package stokes

import (
	"math"
)

// EnergyOp advances the thermal energy equation (paper eq. 2c)
//
//	rho cp (dT/dt + v . grad T) - div(k grad T) = rho H
//
// with trilinear elements on the forest mesh, stabilized by the
// streamline-upwind Petrov-Galerkin scheme the paper uses ("mantle thermal
// transport is strongly advection-dominated; we thus employ the SUPG
// scheme to stabilize the discretization of the energy equation"), and
// integrated explicitly, which "decouples the temperature update from the
// nonlinear Stokes solve" (§IV.A). Nondimensional: rho cp = 1.
type EnergyOp struct {
	Op    *Operator
	Kappa float64 // thermal diffusivity k
	H     float64 // internal heating rate

	lumped []float64 // assembled lumped mass per node
}

// NewEnergyOp builds the explicit SUPG energy operator on the same mesh and
// node numbering as the Stokes operator.
func NewEnergyOp(op *Operator, kappa, heating float64) *EnergyOp {
	e := &EnergyOp{Op: op, Kappa: kappa, H: heating}
	e.lumped = make([]float64, op.NN)
	for el := range op.F.Local {
		op.scatter(el, op.EM[el].MInt[:], 1, e.lumped)
	}
	op.Nodes.AssembleSum(e.lumped)
	return e
}

// Residual computes R(T) with R_i = int [ -(v.grad T) phi_i^supg
// - kappa grad T . grad phi_i + H phi_i^supg ], so that the explicit update
// is T += dt * M_L^{-1} R. vel is the Stokes solution vector (4 dofs per
// node). Collective.
func (e *EnergyOp) Residual(t, vel []float64, r []float64) {
	op := e.Op
	for i := range r {
		r[i] = 0
	}
	for el := range op.F.Local {
		tc := op.CornerScalar(el, t)
		// Corner velocities (constrained).
		vc, _ := op.gatherElem(el, vel, op.BC)
		eg := &op.Geo[el]
		qd := elemQuad(eg)
		// Element size estimate for the SUPG parameter.
		hx := eg[7][0] - eg[0][0]
		hy := eg[7][1] - eg[0][1]
		hz := eg[7][2] - eg[0][2]
		hele := math.Sqrt(hx*hx+hy*hy+hz*hz) / math.Sqrt(3)

		var re [8]float64
		for q := range qd {
			w := qd[q].wjb
			// Velocity, temperature gradient, and shape gradients at q.
			var vq [3]float64
			var gradT [3]float64
			for c := 0; c < 8; c++ {
				for a := 0; a < 3; a++ {
					vq[a] += qd[q].n[c] * vc[3*c+a]
					gradT[a] += qd[q].dx[c][a] * tc[c]
				}
			}
			vmag := math.Sqrt(vq[0]*vq[0] + vq[1]*vq[1] + vq[2]*vq[2])
			tau := 0.0
			if vmag > 1e-14 {
				// Classic SUPG parameter with a diffusive limiter.
				tau = hele / (2 * vmag)
				if e.Kappa > 0 {
					peclet := vmag * hele / (2 * e.Kappa)
					if peclet < 1 {
						tau *= peclet
					}
				}
			}
			adv := vq[0]*gradT[0] + vq[1]*gradT[1] + vq[2]*gradT[2]
			for c := 0; c < 8; c++ {
				supg := qd[q].n[c]
				if tau > 0 {
					supg += tau * (vq[0]*qd[q].dx[c][0] + vq[1]*qd[q].dx[c][1] + vq[2]*qd[q].dx[c][2])
				}
				re[c] += w * (-adv*supg + e.H*supg)
				re[c] -= w * e.Kappa * (qd[q].dx[c][0]*gradT[0] + qd[q].dx[c][1]*gradT[1] + qd[q].dx[c][2]*gradT[2])
			}
		}
		op.scatter(el, re[:], 1, r)
	}
	op.Nodes.AssembleSum(r)
}

// Step advances T by one explicit step of size dt. bc, if non-nil, pins
// boundary nodes to fixed values: for a node at position x with bc(x) =
// (value, true), T is reset to the value after the update. Collective.
func (e *EnergyOp) Step(t, vel []float64, dt float64, bc func(x [3]float64) (float64, bool)) {
	r := make([]float64, len(t))
	e.Residual(t, vel, r)
	for i := range t {
		if e.lumped[i] > 0 {
			t[i] += dt * r[i] / e.lumped[i]
		}
	}
	if bc != nil {
		for i := range t {
			if v, ok := bc(e.Op.NodePos(i)); ok {
				t[i] = v
			}
		}
	}
}

// StableDT returns a conservative explicit time step for the current
// velocity field: the minimum of the advective and diffusive limits over
// the local elements, reduced globally by the caller if desired.
func (e *EnergyOp) StableDT(vel []float64) float64 {
	op := e.Op
	dt := math.MaxFloat64
	for el := range op.F.Local {
		eg := &op.Geo[el]
		hx := eg[7][0] - eg[0][0]
		hy := eg[7][1] - eg[0][1]
		hz := eg[7][2] - eg[0][2]
		h := math.Sqrt(hx*hx+hy*hy+hz*hz) / math.Sqrt(3)
		vc, _ := op.gatherElem(el, vel, op.BC)
		vmax := 1e-14
		for c := 0; c < 8; c++ {
			v := math.Sqrt(vc[3*c]*vc[3*c] + vc[3*c+1]*vc[3*c+1] + vc[3*c+2]*vc[3*c+2])
			if v > vmax {
				vmax = v
			}
		}
		adv := 0.25 * h / vmax
		if adv < dt {
			dt = adv
		}
		if e.Kappa > 0 {
			dif := 0.15 * h * h / e.Kappa
			if dif < dt {
				dt = dif
			}
		}
	}
	return dt
}
