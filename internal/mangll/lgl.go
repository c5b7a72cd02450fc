// Package mangll provides arbitrary-order continuous and discontinuous
// finite/spectral element discretization on forest-of-octrees meshes, as the
// paper's mangll library does on p4est meshes (§II.E): Legendre-Gauss-
// Lobatto nodal bases, tensor-product operators, the dG mesh with hanging
// 2:1 face interpolation and inter-tree rotations, and the low-storage
// Runge-Kutta time integrator.
package mangll

import (
	"math"
)

// LGL holds the one-dimensional Legendre-Gauss-Lobatto nodal basis of
// degree N: N+1 points on [-1, 1], quadrature weights that render the mass
// matrix diagonal (the spectral element simplification the paper uses), and
// the spectral differentiation matrix.
type LGL struct {
	N int       // polynomial degree
	X []float64 // N+1 nodes in [-1, 1], ascending
	W []float64 // quadrature weights
	D [][]float64
	// DF is D flattened row-major (DF[i*(N+1)+j] = D[i][j]); the hot
	// tensor kernels read the flat form so each matrix row is one
	// contiguous cache run instead of a pointer chase per row.
	DF []float64
}

// legendreAndDeriv evaluates P_n(x) and P_n'(x) by recurrence.
func legendreAndDeriv(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	pm1, p := 1.0, x
	for k := 2; k <= n; k++ {
		pm1, p = p, ((2*float64(k)-1)*x*p-(float64(k)-1)*pm1)/float64(k)
	}
	// P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
	if x == 1 || x == -1 {
		dp = math.Pow(x, float64(n-1)) * float64(n) * float64(n+1) / 2
		return p, dp
	}
	dp = float64(n) * (x*p - pm1) / (x*x - 1)
	return p, dp
}

// NewLGL constructs the degree-N LGL basis. N must be >= 1.
func NewLGL(n int) *LGL {
	if n < 1 {
		panic("mangll: LGL degree must be >= 1")
	}
	l := &LGL{N: n}
	np := n + 1
	l.X = make([]float64, np)
	l.W = make([]float64, np)

	// Interior LGL nodes are the roots of P_N'; find them by Newton
	// iteration from Chebyshev-Gauss-Lobatto initial guesses.
	l.X[0], l.X[n] = -1, 1
	for i := 1; i < n; i++ {
		x := -math.Cos(math.Pi * float64(i) / float64(n))
		for iter := 0; iter < 100; iter++ {
			// q(x) = P_N'(x); Newton using derivative of q via the ODE
			// (1-x^2) P_N'' - 2x P_N' + N(N+1) P_N = 0.
			p, dp := legendreAndDeriv(n, x)
			ddp := (2*x*dp - float64(n)*float64(n+1)*p) / (1 - x*x)
			dx := dp / ddp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		l.X[i] = x
	}
	for i := 0; i <= n; i++ {
		p, _ := legendreAndDeriv(n, l.X[i])
		l.W[i] = 2 / (float64(n) * float64(n+1) * p * p)
	}
	l.D = l.diffMatrix()
	l.DF = flatten(l.D)
	return l
}

// flatten copies a rectangular [][]float64 into row-major form.
func flatten(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// barycentric weights of the LGL nodes.
func (l *LGL) baryWeights() []float64 {
	np := l.N + 1
	w := make([]float64, np)
	for i := 0; i < np; i++ {
		w[i] = 1
		for j := 0; j < np; j++ {
			if j != i {
				w[i] /= l.X[i] - l.X[j]
			}
		}
	}
	return w
}

// diffMatrix returns the (N+1)x(N+1) spectral differentiation matrix:
// (Du)_i = sum_j D[i][j] u_j approximates du/dx at node i exactly for
// polynomials of degree N.
func (l *LGL) diffMatrix() [][]float64 {
	np := l.N + 1
	bw := l.baryWeights()
	d := make([][]float64, np)
	for i := range d {
		d[i] = make([]float64, np)
	}
	for i := 0; i < np; i++ {
		var diag float64
		for j := 0; j < np; j++ {
			if i == j {
				continue
			}
			d[i][j] = bw[j] / (bw[i] * (l.X[i] - l.X[j]))
			diag -= d[i][j]
		}
		d[i][i] = diag
	}
	return d
}

// InterpMatrix returns the matrix that evaluates a degree-N nodal
// polynomial (values at l.X) at the given target points: out[i][j] is the
// j-th Lagrange basis function at target[i].
func (l *LGL) InterpMatrix(target []float64) [][]float64 {
	np := l.N + 1
	bw := l.baryWeights()
	m := make([][]float64, len(target))
	for ti, x := range target {
		row := make([]float64, np)
		exact := -1
		for j := 0; j < np; j++ {
			if x == l.X[j] {
				exact = j
				break
			}
		}
		if exact >= 0 {
			row[exact] = 1
		} else {
			var denom float64
			for j := 0; j < np; j++ {
				row[j] = bw[j] / (x - l.X[j])
				denom += row[j]
			}
			for j := 0; j < np; j++ {
				row[j] /= denom
			}
		}
		m[ti] = row
	}
	return m
}

// HalfInterp returns the two (N+1)x(N+1) matrices that interpolate a 1D
// nodal polynomial onto the lower half [-1,0] and upper half [0,1] of the
// interval, mapped back to LGL points. These are the building blocks of the
// 2:1 hanging-face interpolation: "the unknowns on the larger face are
// interpolated to align with the unknowns on the four connecting smaller
// faces" (paper §II.E).
func (l *LGL) HalfInterp() (lo, hi [][]float64) {
	np := l.N + 1
	tlo := make([]float64, np)
	thi := make([]float64, np)
	for i, x := range l.X {
		tlo[i] = (x - 1) / 2
		thi[i] = (x + 1) / 2
	}
	return l.InterpMatrix(tlo), l.InterpMatrix(thi)
}
