package stokes

import (
	"math"
)

// entry is one sparse matrix entry during assembly.
type entry struct {
	col int32
	val float64
}

// csr is a square sparse matrix in compressed-sparse-row form.
type csr struct {
	n    int
	ptr  []int
	col  []int32
	val  []float64
	diag []float64
}

func (m *csr) matvec(x, y []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			s += m.val[k] * x[m.col[k]]
		}
		y[i] = s
	}
}

// AMG is a plain-aggregation algebraic multigrid hierarchy for the viscous
// block, used as the (1,1) preconditioner inside MINRES — the role ML's
// smoothed-aggregation V-cycle plays in the paper's Rhea (§IV.A). Each rank
// builds the hierarchy for its locally assembled rows; the global
// preconditioner is the overlapping additive Schwarz sum of the per-rank
// V-cycles, which is symmetric and positive definite as MINRES requires.
type AMG struct {
	levels []*amgLevel
	coarse *denseChol
}

type amgLevel struct {
	a       *csr
	agg     []int32 // fine row -> coarse row
	nCoarse int
	omega   float64 // damped-Jacobi weight
	// scratch
	x, r, xc, rc []float64
}

// buildViscousCSR assembles the rank-local viscous block (3 dofs per node)
// with hanging constraints folded in and Dirichlet rows set to identity.
func buildViscousCSR(op *Operator) *csr {
	n := 3 * op.NN
	rows := make([][]entry, n)
	add := func(r, c int, v float64) {
		if v == 0 {
			return
		}
		rows[r] = append(rows[r], entry{int32(c), v})
	}
	for e := range op.F.Local {
		em := op.EM[e]
		for c := 0; c < 8; c++ {
			rc := op.Nodes.Corner(e, c)
			wc := 1 / float64(len(rc))
			for _, ni := range rc {
				if op.BC[ni] {
					continue
				}
				for d := 0; d < 8; d++ {
					rd := op.Nodes.Corner(e, d)
					wd := 1 / float64(len(rd))
					for _, nj := range rd {
						if op.BC[nj] {
							continue
						}
						for a := 0; a < 3; a++ {
							for b := 0; b < 3; b++ {
								v := wc * wd * em.A[3*c+a][3*d+b]
								if v != 0 {
									add(int(ni)*3+a, int(nj)*3+b, v)
								}
							}
						}
					}
				}
			}
		}
	}
	m := &csr{n: n, ptr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		// Merge duplicate column entries.
		es := rows[i]
		sortEntries(es)
		merged := es[:0]
		for _, e := range es {
			if len(merged) > 0 && merged[len(merged)-1].col == e.col {
				merged[len(merged)-1].val += e.val
			} else {
				merged = append(merged, e)
			}
		}
		if len(merged) == 0 {
			// Dirichlet or untouched row: identity.
			merged = append(merged, entry{int32(i), 1})
		}
		for _, e := range merged {
			m.col = append(m.col, e.col)
			m.val = append(m.val, e.val)
		}
		m.ptr[i+1] = len(m.col)
	}
	m.computeDiag()
	return m
}

func sortEntries(es []entry) {
	// insertion sort: element rows have <= ~100 entries
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].col < es[j-1].col; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func (m *csr) computeDiag() {
	m.diag = make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if int(m.col[k]) == i {
				m.diag[i] = m.val[k]
			}
		}
		if m.diag[i] == 0 {
			m.diag[i] = 1
		}
	}
}

// NewAMG builds the hierarchy from the operator's local viscous block.
func NewAMG(op *Operator) *AMG {
	a := buildViscousCSR(op)
	amg := &AMG{}
	const coarsestSize = 120
	for a.n > coarsestSize && len(amg.levels) < 12 {
		lvl := &amgLevel{a: a, omega: 2.0 / 3.0}
		lvl.aggregateNodes()
		if lvl.nCoarse >= a.n { // no coarsening progress
			break
		}
		ac := galerkin(a, lvl.agg, lvl.nCoarse)
		lvl.x = make([]float64, a.n)
		lvl.r = make([]float64, a.n)
		lvl.xc = make([]float64, lvl.nCoarse)
		lvl.rc = make([]float64, lvl.nCoarse)
		amg.levels = append(amg.levels, lvl)
		a = ac
	}
	amg.coarse = newDenseChol(a)
	return amg
}

// aggregateNodes groups fine rows into aggregates by greedy neighbourhood
// aggregation on the matrix graph, keeping the three velocity components
// of one mesh node in the same aggregate pattern (rows are grouped in
// triples).
func (l *amgLevel) aggregateNodes() {
	a := l.a
	nNodes := a.n / 3
	if a.n%3 != 0 {
		nNodes = a.n // degenerate: aggregate by row
	}
	agg := make([]int32, a.n)
	for i := range agg {
		agg[i] = -1
	}
	next := int32(0)
	// Standard two-pass plain aggregation: pass 1 seeds aggregates only at
	// "root" nodes whose whole neighbourhood is still free (and claims that
	// neighbourhood); pass 2 attaches leftovers to a neighbouring aggregate
	// instead of creating singletons, which keeps the coarsening ratio
	// healthy (a single greedy pass stalls into singleton aggregates and a
	// huge coarsest level).
	isIdentityRow := func(r int) bool {
		return a.ptr[r+1]-a.ptr[r] == 1 && int(a.col[a.ptr[r]]) == r
	}
	if a.n%3 == 0 {
		nodeAgg := make([]int32, nNodes)
		for i := range nodeAgg {
			nodeAgg[i] = -1
		}
		// Decoupled identity rows (Dirichlet nodes) share one aggregate:
		// they have no couplings, so they would otherwise persist as
		// singletons through every level.
		idAgg := int32(-1)
		for i := 0; i < nNodes; i++ {
			if isIdentityRow(3*i) && isIdentityRow(3*i+1) && isIdentityRow(3*i+2) {
				if idAgg < 0 {
					idAgg = next
					next++
				}
				nodeAgg[i] = idAgg
			}
		}
		nodeNbrs := func(i int) []int32 {
			row := 3 * i
			return a.col[a.ptr[row]:a.ptr[row+1]]
		}
		for i := 0; i < nNodes; i++ {
			if nodeAgg[i] >= 0 {
				continue
			}
			free := true
			for _, cj := range nodeNbrs(i) {
				if nodeAgg[int(cj)/3] >= 0 {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			id := next
			next++
			nodeAgg[i] = id
			for _, cj := range nodeNbrs(i) {
				nodeAgg[int(cj)/3] = id
			}
		}
		for i := 0; i < nNodes; i++ {
			if nodeAgg[i] >= 0 {
				continue
			}
			for _, cj := range nodeNbrs(i) {
				if g := nodeAgg[int(cj)/3]; g >= 0 {
					nodeAgg[i] = g
					break
				}
			}
			if nodeAgg[i] < 0 { // isolated node
				nodeAgg[i] = next
				next++
			}
		}
		for i := 0; i < nNodes; i++ {
			for c := 0; c < 3; c++ {
				agg[3*i+c] = 3*nodeAgg[i] + int32(c)
			}
		}
		l.nCoarse = int(next) * 3
	} else {
		idAgg := int32(-1)
		for i := 0; i < a.n; i++ {
			if isIdentityRow(i) {
				if idAgg < 0 {
					idAgg = next
					next++
				}
				agg[i] = idAgg
			}
		}
		for i := 0; i < a.n; i++ {
			if agg[i] >= 0 {
				continue
			}
			free := true
			for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
				if agg[a.col[k]] >= 0 {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			id := next
			next++
			agg[i] = id
			for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
				if agg[a.col[k]] < 0 {
					agg[a.col[k]] = id
				}
			}
		}
		for i := 0; i < a.n; i++ {
			if agg[i] >= 0 {
				continue
			}
			for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
				if g := agg[a.col[k]]; g >= 0 {
					agg[i] = g
					break
				}
			}
			if agg[i] < 0 {
				agg[i] = next
				next++
			}
		}
		l.nCoarse = int(next)
	}
	l.agg = agg
}

// galerkin computes the coarse operator P^T A P for the piecewise-constant
// prolongation defined by agg.
func galerkin(a *csr, agg []int32, nc int) *csr {
	type key struct{ r, c int32 }
	acc := make(map[key]float64)
	for i := 0; i < a.n; i++ {
		ri := agg[i]
		for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
			cj := agg[a.col[k]]
			acc[key{ri, cj}] += a.val[k]
		}
	}
	rows := make([][]entry, nc)
	for k, v := range acc {
		rows[k.r] = append(rows[k.r], entry{k.c, v})
	}
	m := &csr{n: nc, ptr: make([]int, nc+1)}
	for i := 0; i < nc; i++ {
		sortEntries(rows[i])
		if len(rows[i]) == 0 {
			rows[i] = append(rows[i], entry{int32(i), 1})
		}
		for _, e := range rows[i] {
			m.col = append(m.col, e.col)
			m.val = append(m.val, e.val)
		}
		m.ptr[i+1] = len(m.col)
	}
	m.computeDiag()
	return m
}

// jacobi performs one damped-Jacobi sweep: x += omega D^{-1} (b - A x).
func (l *amgLevel) jacobi(b, x []float64) {
	a := l.a
	r := l.r
	a.matvec(x, r)
	for i := 0; i < a.n; i++ {
		x[i] += l.omega * (b[i] - r[i]) / a.diag[i]
	}
}

// VCycle applies one V(1,1)-cycle for the local viscous block: z = B^-1 r.
func (amg *AMG) VCycle(r, z []float64) {
	amg.vcycle(0, r, z)
}

func (amg *AMG) vcycle(lv int, b, x []float64) {
	if lv == len(amg.levels) {
		amg.coarse.solve(b, x)
		return
	}
	l := amg.levels[lv]
	for i := range x {
		x[i] = 0
	}
	l.jacobi(b, x)
	// residual and restriction
	l.a.matvec(x, l.r)
	for i := range l.rc {
		l.rc[i] = 0
	}
	for i := 0; i < l.a.n; i++ {
		l.rc[l.agg[i]] += b[i] - l.r[i]
	}
	amg.vcycle(lv+1, l.rc, l.xc)
	for i := 0; i < l.a.n; i++ {
		x[i] += l.xc[l.agg[i]]
	}
	l.jacobi(b, x)
}

// denseChol is a dense LDL^T factorization for the coarsest level.
type denseChol struct {
	n int
	m []float64 // factored in place
}

func newDenseChol(a *csr) *denseChol {
	n := a.n
	d := &denseChol{n: n, m: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for k := a.ptr[i]; k < a.ptr[i+1]; k++ {
			d.m[i*n+int(a.col[k])] = a.val[k]
		}
	}
	// LU with diagonal pivoting fallback (matrix is SPD up to identity
	// rows, so plain elimination is stable enough at this size).
	for c := 0; c < n; c++ {
		piv := d.m[c*n+c]
		if math.Abs(piv) < 1e-300 {
			piv = 1
			d.m[c*n+c] = 1
		}
		for r := c + 1; r < n; r++ {
			f := d.m[r*n+c] / piv
			if f == 0 {
				continue
			}
			d.m[r*n+c] = f
			for cc := c + 1; cc < n; cc++ {
				d.m[r*n+cc] -= f * d.m[c*n+cc]
			}
		}
	}
	return d
}

func (d *denseChol) solve(b, x []float64) {
	n := d.n
	copy(x, b)
	for r := 1; r < n; r++ {
		for c := 0; c < r; c++ {
			x[r] -= d.m[r*n+c] * x[c]
		}
	}
	for r := n - 1; r >= 0; r-- {
		for c := r + 1; c < n; c++ {
			x[r] -= d.m[r*n+c] * x[c]
		}
		x[r] /= d.m[r*n+r]
	}
}
