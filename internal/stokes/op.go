package stokes

import (
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Operator is the distributed, matrix-free stabilized Stokes saddle-point
// operator on the trilinear node numbering. Unknowns are interleaved per
// node: [ux, uy, uz, p], so a vector has 4*NN entries for NN local nodes.
// Velocity Dirichlet rows are replaced by the identity; the paper's Rhea
// solves the same symmetric indefinite system [A B; B^T -C] with MINRES.
type Operator struct {
	F     *core.Forest
	Nodes *core.Nodes
	NN    int

	Geo []ElemGeom
	Eta []float64 // per-element viscosity
	EM  []*ElemMatrices

	BC        []bool    // per local node: homogeneous velocity Dirichlet
	owned     []float64 // 1 if this rank owns the node
	nodePos   [][3]float64
	schurDiag []float64 // assembled lumped (1/eta) pressure mass

	Met *metrics.Registry
}

// NewOperator builds the operator for the forest's current mesh. eta gives
// the per-element viscosity; bc marks Dirichlet velocity boundary nodes by
// physical position.
func NewOperator(f *core.Forest, nd *core.Nodes, eta []float64, bc func(x [3]float64) bool, met *metrics.Registry) *Operator {
	if met == nil {
		met = metrics.NewRegistry()
	}
	op := &Operator{
		F: f, Nodes: nd, NN: len(nd.Keys), Eta: eta, Met: met,
	}
	geom := f.Conn.Geometry()
	op.Geo = make([]ElemGeom, len(f.Local))
	op.EM = make([]*ElemMatrices, len(f.Local))
	for e, o := range f.Local {
		op.Geo[e] = CornerGeometry(geom, o)
		op.EM[e] = BuildElemMatrices(&op.Geo[e], eta[e])
	}
	op.nodePos = make([][3]float64, op.NN)
	op.BC = make([]bool, op.NN)
	op.owned = make([]float64, op.NN)
	for i, k := range nd.Keys {
		op.nodePos[i] = geom.X(k.Tree, [3]float64{
			connectivity.RefCoord(k.X), connectivity.RefCoord(k.Y), connectivity.RefCoord(k.Z),
		})
		op.BC[i] = bc(op.nodePos[i])
		if nd.Owner[i] == f.Comm.Rank() {
			op.owned[i] = 1
		}
	}
	// Schur complement diagonal: lumped pressure mass weighted by 1/eta.
	op.schurDiag = make([]float64, op.NN)
	for e := range f.Local {
		em := op.EM[e]
		for c := 0; c < 8; c++ {
			ref := nd.ElementNodes[e][c]
			w := ref.Weight()
			for _, ni := range ref.Nodes {
				op.schurDiag[ni] += w * em.MInt[c] / eta[e]
			}
		}
	}
	nd.AssembleSum(op.schurDiag)
	return op
}

// NodePos returns the physical position of local node i.
func (op *Operator) NodePos(i int) [3]float64 { return op.nodePos[i] }

// gatherElem extracts the element's corner velocity and pressure values
// from a global vector, applying hanging constraints and masking Dirichlet
// velocity values to zero.
func (op *Operator) gatherElem(e int, x []float64) (v [24]float64, p [8]float64) {
	en := &op.Nodes.ElementNodes[e]
	for c := 0; c < 8; c++ {
		ref := en[c]
		w := ref.Weight()
		for _, ni := range ref.Nodes {
			base := int(ni) * 4
			if !op.BC[ni] {
				v[3*c+0] += w * x[base+0]
				v[3*c+1] += w * x[base+1]
				v[3*c+2] += w * x[base+2]
			}
			p[c] += w * x[base+3]
		}
	}
	return
}

// scatterElem accumulates element residuals back to the global vector
// through the transposed constraints, skipping Dirichlet velocity rows.
func (op *Operator) scatterElem(e int, v *[24]float64, p *[8]float64, y []float64) {
	en := &op.Nodes.ElementNodes[e]
	for c := 0; c < 8; c++ {
		ref := en[c]
		w := ref.Weight()
		for _, ni := range ref.Nodes {
			base := int(ni) * 4
			if !op.BC[ni] {
				y[base+0] += w * v[3*c+0]
				y[base+1] += w * v[3*c+1]
				y[base+2] += w * v[3*c+2]
			}
			y[base+3] += w * p[c]
		}
	}
}

// Apply computes y = K x for the full saddle operator, including the
// assembly exchange and Dirichlet identity rows. Collective.
func (op *Operator) Apply(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for e := range op.F.Local {
		v, p := op.gatherElem(e, x)
		em := op.EM[e]
		var yv [24]float64
		var yp [8]float64
		for i := 0; i < 24; i++ {
			s := 0.0
			for j := 0; j < 24; j++ {
				s += em.A[i][j] * v[j]
			}
			for j := 0; j < 8; j++ {
				s += em.B[i][j] * p[j]
			}
			yv[i] = s
		}
		for i := 0; i < 8; i++ {
			s := 0.0
			for j := 0; j < 24; j++ {
				s += em.B[j][i] * v[j]
			}
			for j := 0; j < 8; j++ {
				s -= em.C[i][j] * p[j]
			}
			yp[i] = s
		}
		op.scatterElem(e, &yv, &yp, y)
	}
	op.Nodes.AssembleSumVec(4, y)
	for i := 0; i < op.NN; i++ {
		if op.BC[i] {
			y[i*4+0] = x[i*4+0]
			y[i*4+1] = x[i*4+1]
			y[i*4+2] = x[i*4+2]
		}
	}
}

// BuildRHS integrates the buoyancy force (given per physical position)
// into the velocity equations. Collective.
func (op *Operator) BuildRHS(force func(x [3]float64) [3]float64) []float64 {
	return op.BuildRHSElem(func(e int) (fc [8][3]float64) {
		for c := 0; c < 8; c++ {
			fc[c] = force(op.Geo[e][c])
		}
		return
	})
}

// BuildRHSElem is BuildRHS with the force given per element corner (used
// when the buoyancy derives from a nodal field rather than a positional
// callback). Collective.
func (op *Operator) BuildRHSElem(force func(e int) [8][3]float64) []float64 {
	rhs := make([]float64, 4*op.NN)
	for e := range op.F.Local {
		fc := force(e)
		ev := ElemRHS(&op.Geo[e], fc)
		var zero [8]float64
		op.scatterElem(e, &ev, &zero, rhs)
	}
	op.Nodes.AssembleSumVec(4, rhs)
	for i := 0; i < op.NN; i++ {
		if op.BC[i] {
			rhs[i*4+0], rhs[i*4+1], rhs[i*4+2] = 0, 0, 0
		}
	}
	return rhs
}

// Dot is the global inner product counting every owned node once.
func (op *Operator) Dot(x, y []float64) float64 {
	var s float64
	for i := 0; i < op.NN; i++ {
		if op.owned[i] == 0 {
			continue
		}
		base := i * 4
		s += x[base]*y[base] + x[base+1]*y[base+1] + x[base+2]*y[base+2] + x[base+3]*y[base+3]
	}
	return mpi.AllreduceSumFloat(op.F.Comm, s)
}

// MeanPressure returns the global mean of the pressure component.
func (op *Operator) MeanPressure(x []float64) float64 {
	var s, n float64
	for i := 0; i < op.NN; i++ {
		if op.owned[i] == 1 {
			s += x[i*4+3]
			n++
		}
	}
	s = mpi.AllreduceSumFloat(op.F.Comm, s)
	n = mpi.AllreduceSumFloat(op.F.Comm, n)
	return s / n
}

// RemoveMeanPressure subtracts the global mean pressure (the nullspace of
// the fully Dirichlet problem) from x, consistently on all ranks.
func (op *Operator) RemoveMeanPressure(x []float64) {
	m := op.MeanPressure(x)
	for i := 0; i < op.NN; i++ {
		x[i*4+3] -= m
	}
}

// VelocityAt returns the constrained corner velocities of element e for
// vector x (used by the rheology's strain-rate evaluation).
func (op *Operator) VelocityAt(e int, x []float64) [8][3]float64 {
	v, _ := op.gatherElem(e, x)
	var out [8][3]float64
	for c := 0; c < 8; c++ {
		out[c] = [3]float64{v[3*c], v[3*c+1], v[3*c+2]}
	}
	return out
}

// ApplyRaw computes y = K x with the raw element operators: no Dirichlet
// masking and no identity rows. Used to move inhomogeneous boundary values
// to the right-hand side. Collective.
func (op *Operator) ApplyRaw(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for e := range op.F.Local {
		en := &op.Nodes.ElementNodes[e]
		var v [24]float64
		var p [8]float64
		for c := 0; c < 8; c++ {
			ref := en[c]
			w := ref.Weight()
			for _, ni := range ref.Nodes {
				base := int(ni) * 4
				v[3*c+0] += w * x[base+0]
				v[3*c+1] += w * x[base+1]
				v[3*c+2] += w * x[base+2]
				p[c] += w * x[base+3]
			}
		}
		em := op.EM[e]
		var yv [24]float64
		var yp [8]float64
		for i := 0; i < 24; i++ {
			s := 0.0
			for j := 0; j < 24; j++ {
				s += em.A[i][j] * v[j]
			}
			for j := 0; j < 8; j++ {
				s += em.B[i][j] * p[j]
			}
			yv[i] = s
		}
		for i := 0; i < 8; i++ {
			s := 0.0
			for j := 0; j < 24; j++ {
				s += em.B[j][i] * v[j]
			}
			for j := 0; j < 8; j++ {
				s -= em.C[i][j] * p[j]
			}
			yp[i] = s
		}
		for c := 0; c < 8; c++ {
			ref := en[c]
			w := ref.Weight()
			for _, ni := range ref.Nodes {
				base := int(ni) * 4
				y[base+0] += w * yv[3*c+0]
				y[base+1] += w * yv[3*c+1]
				y[base+2] += w * yv[3*c+2]
				y[base+3] += w * yp[c]
			}
		}
	}
	op.Nodes.AssembleSumVec(4, y)
}

// SolveDirichlet solves the Stokes system with velocity boundary values
// g(x) on the Dirichlet nodes and body force f, using MINRES with the
// AMG/Schur preconditioner. It returns the solution vector (interleaved
// [ux uy uz p] per node with boundary values in place), the iteration
// count, and the achieved relative residual. Collective.
func (op *Operator) SolveDirichlet(
	f func(x [3]float64) [3]float64,
	g func(x [3]float64) [3]float64,
	tol float64, maxIter int,
) (x []float64, iters int, relres float64) {
	return op.SolveDirichletRHS(op.BuildRHS(f), g, tol, maxIter)
}

// SolveDirichletRHS is SolveDirichlet with a caller-assembled right-hand
// side (e.g. from BuildRHSElem with a nodal buoyancy field). Collective.
func (op *Operator) SolveDirichletRHS(
	rhs []float64,
	g func(x [3]float64) [3]float64,
	tol float64, maxIter int,
) (x []float64, iters int, relres float64) {
	n := 4 * op.NN
	xg := make([]float64, n)
	inhomog := false
	for i := 0; i < op.NN; i++ {
		if op.BC[i] {
			gv := g(op.nodePos[i])
			xg[4*i], xg[4*i+1], xg[4*i+2] = gv[0], gv[1], gv[2]
			if gv != [3]float64{} {
				inhomog = true
			}
		}
	}
	if inhomog {
		lift := make([]float64, n)
		op.ApplyRaw(xg, lift)
		for i := range rhs {
			rhs[i] -= lift[i]
		}
		for i := 0; i < op.NN; i++ {
			if op.BC[i] {
				rhs[4*i], rhs[4*i+1], rhs[4*i+2] = 0, 0, 0
			}
		}
	}
	prec := NewPreconditioner(op)
	x = make([]float64, n)
	matvec := op.Met.Histogram("matvec", metrics.UnitDuration)
	t0 := time.Now()
	iters, relres = MINRES(n,
		func(a, b []float64) {
			defer matvec.Since(time.Now())
			op.Apply(a, b)
		},
		prec.Apply, op.Dot, rhs, x, tol, maxIter)
	op.Met.Histogram("solve", metrics.UnitDuration).Since(t0)
	for i := range x {
		x[i] += xg[i]
	}
	op.RemoveMeanPressure(x)
	return x, iters, relres
}

// CornerScalar returns the constrained corner values of a nodal scalar
// field for element e (hanging corners interpolate their anchors).
func (op *Operator) CornerScalar(e int, t []float64) (out [8]float64) {
	en := &op.Nodes.ElementNodes[e]
	for c := 0; c < 8; c++ {
		ref := en[c]
		w := ref.Weight()
		for _, ni := range ref.Nodes {
			out[c] += w * t[ni]
		}
	}
	return
}
