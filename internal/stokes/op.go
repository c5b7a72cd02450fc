package stokes

import (
	"repro/internal/connectivity"
	"repro/internal/core"
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
}

// NewOperator builds the operator for the forest's current mesh. eta gives
// the per-element viscosity; bc marks Dirichlet velocity boundary nodes by
// physical position.
func NewOperator(f *core.Forest, nd *core.Nodes, eta []float64, bc func(x [3]float64) bool) *Operator {
	op := &Operator{
		F: f, Nodes: nd, NN: len(nd.Keys), Eta: eta,
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
	// Constraint weights are 1, ½ or ¼, so w·(m/η) rounds as (w·m)/η.
	op.schurDiag = make([]float64, op.NN)
	for e := range f.Local {
		var m [8]float64
		for c := range m {
			m[c] = op.EM[e].MInt[c] / eta[e]
		}
		op.scatter(e, m[:], 1, op.schurDiag)
	}
	nd.AssembleSum(op.schurDiag)
	return op
}

// NodePos returns the physical position of local node i.
func (op *Operator) NodePos(i int) [3]float64 { return op.nodePos[i] }

// gather reads element e's constrained corner values of the nodal vector
// x with nc interleaved components per node: out[nc·c+a] accumulates
// w·x[nc·n+a] over the anchors n of corner c, in anchor order (one anchor
// of weight 1 for an independent corner; two or four of weight ½ or ¼ for
// a hanging one). A non-nil mask reads the velocity components (a < 3) of
// the nodes it marks as zero. gather and scatter are the only places the
// hanging constraints are applied outside the AMG matrix assembly.
func (op *Operator) gather(e int, x []float64, nc int, mask []bool, out []float64) {
	for c := 0; c < 8; c++ {
		ns := op.Nodes.Corner(e, c)
		w := 1 / float64(len(ns))
		for _, n := range ns {
			lo := 0
			if mask != nil && mask[n] {
				lo = 3
			}
			o := out[nc*c+lo : nc*c+nc]
			for a, xa := range x[nc*int(n)+lo:][:len(o)] {
				o[a] += w * xa
			}
		}
	}
}

// scatter is gather's transpose without a mask: it accumulates w·in[nc·c+a]
// into y[nc·n+a] over the anchors n of every corner c. Rows of Dirichlet
// velocities receive contributions too; every caller overwrites them after
// the assembly.
func (op *Operator) scatter(e int, in []float64, nc int, y []float64) {
	for c := 0; c < 8; c++ {
		ns := op.Nodes.Corner(e, c)
		w := 1 / float64(len(ns))
		ic := in[nc*c : nc*c+nc]
		for _, n := range ns {
			yn := y[nc*int(n):][:len(ic)]
			for a, v := range ic {
				yn[a] += w * v
			}
		}
	}
}

// gatherElem is gather for a Stokes vector, split into the element's
// corner velocities and pressures.
func (op *Operator) gatherElem(e int, x []float64, mask []bool) (v [24]float64, p [8]float64) {
	var u [32]float64
	op.gather(e, x, 4, mask, u[:])
	for c := range p {
		copy(v[3*c:3*c+3], u[4*c:4*c+3])
		p[c] = u[4*c+3]
	}
	return
}

// scatterElem interleaves corner velocities and pressures and scatters them.
func (op *Operator) scatterElem(e int, v *[24]float64, p *[8]float64, y []float64) {
	var u [32]float64
	for c := range p {
		copy(u[4*c:4*c+3], v[3*c:3*c+3])
		u[4*c+3] = p[c]
	}
	op.scatter(e, u[:], 4, y)
}

// apply computes y = K x from the element operators [A B; Bᵀ -C] and
// assembles the shared nodes. mask (op.BC or nil) reads x's Dirichlet
// velocities as zero. Collective.
func (op *Operator) apply(x, y []float64, mask []bool) {
	clear(y)
	for e := range op.F.Local {
		v, p := op.gatherElem(e, x, mask)
		em := op.EM[e]
		var yv [24]float64
		var yp [8]float64
		for i := range yv {
			s := 0.0
			for j, a := range &em.A[i] {
				s += a * v[j]
			}
			for j, b := range &em.B[i] {
				s += b * p[j]
			}
			yv[i] = s
		}
		for i := range yp {
			s := 0.0
			for j := range v {
				s += em.B[j][i] * v[j]
			}
			for j, c := range &em.C[i] {
				s -= c * p[j]
			}
			yp[i] = s
		}
		op.scatterElem(e, &yv, &yp, y)
	}
	op.Nodes.AssembleSumVec(4, y)
}

// Apply computes y = K x for the full saddle operator, including the
// assembly exchange and Dirichlet identity rows. Collective.
func (op *Operator) Apply(x, y []float64) {
	op.apply(x, y, op.BC)
	for i, bc := range op.BC {
		if bc {
			copy(y[4*i:4*i+3], x[4*i:4*i+3])
		}
	}
}

// ApplyRaw computes y = K x with the raw element operators: no Dirichlet
// masking and no identity rows. Used to move inhomogeneous boundary values
// to the right-hand side. Collective.
func (op *Operator) ApplyRaw(x, y []float64) { op.apply(x, y, nil) }

// zeroDirichlet clears the Dirichlet velocity rows of v.
func (op *Operator) zeroDirichlet(v []float64) {
	for i, bc := range op.BC {
		if bc {
			clear(v[4*i : 4*i+3])
		}
	}
}

// BuildRHSElem integrates the buoyancy force, given per element corner,
// into the velocity equations. Collective.
func (op *Operator) BuildRHSElem(force func(e int) [8][3]float64) []float64 {
	rhs := make([]float64, 4*op.NN)
	for e := range op.F.Local {
		fc := force(e)
		ev := ElemRHS(&op.Geo[e], fc)
		var zero [8]float64
		op.scatterElem(e, &ev, &zero, rhs)
	}
	op.Nodes.AssembleSumVec(4, rhs)
	op.zeroDirichlet(rhs)
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
	v, _ := op.gatherElem(e, x, op.BC)
	var out [8][3]float64
	for c := 0; c < 8; c++ {
		out[c] = [3]float64{v[3*c], v[3*c+1], v[3*c+2]}
	}
	return out
}

// SolveDirichletRHS solves the Stokes system with right-hand side rhs
// (from BuildRHSElem) and velocity boundary values g(x) on the Dirichlet
// nodes, using MINRES with the AMG/Schur preconditioner. It returns the
// solution vector (interleaved [ux uy uz p] per node with boundary values
// in place), the iteration count, and the achieved relative residual.
// Collective.
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
		op.zeroDirichlet(rhs)
	}
	prec := NewPreconditioner(op)
	x = make([]float64, n)
	tr := op.F.Comm.Tracer()
	tr.Begin("minres")
	iters, relres = MINRES(n,
		func(a, b []float64) {
			tr.Begin("matvec")
			op.Apply(a, b)
			tr.End()
		},
		prec.Apply, op.Dot, rhs, x, tol, maxIter)
	tr.End()
	for i := range x {
		x[i] += xg[i]
	}
	op.RemoveMeanPressure(x)
	return x, iters, relres
}

// CornerScalar returns the constrained corner values of a nodal scalar
// field for element e (hanging corners interpolate their anchors).
func (op *Operator) CornerScalar(e int, t []float64) (out [8]float64) {
	op.gather(e, t, 1, nil, out[:])
	return
}
