package mangll

import (
	"fmt"

	"repro/internal/octant"
)

// subIntervalInterp returns the flat row-major matrix evaluating a nodal
// polynomial at the LGL points of the sub-interval that child bit b
// occupies after `levels` further bisections along one axis, following the
// child-bit path (most significant step first).
func subIntervalInterp(l *LGL, bits []int) []float64 {
	a, b := -1.0, 1.0
	for _, bit := range bits {
		mid := (a + b) / 2
		if bit == 0 {
			b = mid
		} else {
			a = mid
		}
	}
	pts := make([]float64, l.N+1)
	for i, x := range l.X {
		pts[i] = a + (b-a)*(x+1)/2
	}
	return flatten(l.InterpMatrix(pts))
}

// tensor3ApplyBuf computes out[i,j,k] = sum A[i*n+p] B[j*n+q] C[k*n+r]
// u[p,q,r] for flat row-major n x n matrices A, B, C, with caller-provided
// scratch t1, t2 (len n^3 each; must not alias u or out).
func tensor3ApplyBuf(n int, a, b, c, u, out, t1, t2 []float64) {
	nf := n * n
	_ = t1[n*nf-1]
	_ = t2[n*nf-1]
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			row := (j + n*k) * n
			for i := 0; i < n; i++ {
				var s float64
				ai := a[i*n : i*n+n]
				for p := 0; p < n; p++ {
					s += ai[p] * u[row+p]
				}
				t1[row+i] = s
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			col := i + nf*k
			for j := 0; j < n; j++ {
				var s float64
				bj := b[j*n : j*n+n]
				for q := 0; q < n; q++ {
					s += bj[q] * t1[col+q*n]
				}
				t2[col+j*n] = s
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col := i + n*j
			for k := 0; k < n; k++ {
				var s float64
				ck := c[k*n : k*n+n]
				for r := 0; r < n; r++ {
					s += ck[r] * t2[col+r*nf]
				}
				out[col+k*nf] = s
			}
		}
	}
}

// transferScratch returns the element-sized scratch buffers of the
// transfer kernels, allocated once per mesh. The transfer recursion uses
// them only between recursive calls (never across one), so a single set
// per mesh suffices.
func (m *Mesh) transferScratch() (uc, oc, acc, t1, t2 []float64) {
	if m.tUc == nil {
		m.tUc = make([]float64, m.Np)
		m.tOc = make([]float64, m.Np)
		m.tAcc = make([]float64, m.Np)
		m.tT1 = make([]float64, m.Np)
		m.tT2 = make([]float64, m.Np)
	}
	return m.tUc, m.tOc, m.tAcc, m.tT1, m.tT2
}

// TransferFields maps dG element fields from an old leaf array onto a new
// one after Refine/Coarsen/Balance (both arrays must cover the same curve
// segment, which those operations guarantee). Refined elements receive the
// interpolant of their ancestor's polynomial; coarsened elements receive
// the L2 projection of their descendants. nc values per node. This is the
// "solution transfer between meshes" of the paper's end-to-end runs.
func (m *Mesh) TransferFields(oldLeaves []octant.Octant, oldData []float64, newLeaves []octant.Octant, nc int) []float64 {
	l := m.L
	np := m.Np
	per := np * nc
	out := make([]float64, len(newLeaves)*per)
	i, j := 0, 0
	for i < len(oldLeaves) && j < len(newLeaves) {
		o, q := oldLeaves[i], newLeaves[j]
		switch {
		case o == q:
			copy(out[j*per:(j+1)*per], oldData[i*per:(i+1)*per])
			i++
			j++
		case o.IsAncestorOf(q):
			// o was refined: every new leaf under o interpolates o.
			src := oldData[i*per : (i+1)*per]
			for j < len(newLeaves) && o.IsAncestorOf(newLeaves[j]) {
				m.interpolateTo(src, o, newLeaves[j], nc, out[j*per:(j+1)*per])
				j++
			}
			i++
		case q.IsAncestorOf(o):
			// descendants of q were coarsened into q: project them.
			lo := i
			for i < len(oldLeaves) && q.IsAncestorOf(oldLeaves[i]) {
				i++
			}
			m.projectTo(l, oldLeaves[lo:i], oldData[lo*per:i*per], q, nc, out[j*per:(j+1)*per])
			j++
		default:
			panic(fmt.Sprintf("mangll: transfer mismatch between %v and %v", o, q))
		}
	}
	if i != len(oldLeaves) || j != len(newLeaves) {
		panic("mangll: transfer did not consume both meshes")
	}
	return out
}

// interpolateTo evaluates the ancestor's polynomial at the descendant's
// nodes (exact restriction of the polynomial).
func (m *Mesh) interpolateTo(src []float64, anc, desc octant.Octant, nc int, dst []float64) {
	var bitsX, bitsY, bitsZ []int
	cur := desc
	var path []int
	for cur.Level > anc.Level {
		path = append(path, cur.ChildID())
		cur = cur.Parent()
	}
	for k := len(path) - 1; k >= 0; k-- {
		ci := path[k]
		bitsX = append(bitsX, ci&1)
		bitsY = append(bitsY, ci>>1&1)
		bitsZ = append(bitsZ, ci>>2&1)
	}
	ax := subIntervalInterp(m.L, bitsX)
	ay := subIntervalInterp(m.L, bitsY)
	az := subIntervalInterp(m.L, bitsZ)
	np1 := m.Np1
	uc, oc, _, t1, t2 := m.transferScratch()
	for c := 0; c < nc; c++ {
		for n := 0; n < m.Np; n++ {
			uc[n] = src[n*nc+c]
		}
		tensor3ApplyBuf(np1, ax, ay, az, uc, oc, t1, t2)
		for n := 0; n < m.Np; n++ {
			dst[n*nc+c] = oc[n]
		}
	}
}

// projectTo L2-projects the piecewise polynomial on q's descendant leaves
// onto q, by recursive application of the one-level half-interval
// projections. childBuf stays per-call because it is live across the
// recursive calls; the element-sized scratch is not, so it is shared.
func (m *Mesh) projectTo(l *LGL, leaves []octant.Octant, data []float64, q octant.Octant, nc int, dst []float64) {
	per := m.Np * nc
	if len(leaves) == 1 && leaves[0] == q {
		copy(dst, data[:per])
		return
	}
	// Project each child of q, then combine.
	childBuf := make([]float64, 8*per)
	lo := 0
	for ci := 0; ci < 8; ci++ {
		child := q.Child(ci)
		hi := lo
		for hi < len(leaves) && child.Contains(leaves[hi]) {
			hi++
		}
		if hi == lo {
			panic("mangll: projection hole")
		}
		m.projectTo(l, leaves[lo:hi], data[lo*per:hi*per], child, nc, childBuf[ci*per:(ci+1)*per])
		lo = hi
	}
	np1 := m.Np1
	uc, oc, acc, t1, t2 := m.transferScratch()
	for c := 0; c < nc; c++ {
		for n := 0; n < m.Np; n++ {
			acc[n] = 0
		}
		for ci := 0; ci < 8; ci++ {
			px := m.plo
			if ci&1 != 0 {
				px = m.phi
			}
			py := m.plo
			if ci&2 != 0 {
				py = m.phi
			}
			pz := m.plo
			if ci&4 != 0 {
				pz = m.phi
			}
			src := childBuf[ci*per:]
			for n := 0; n < m.Np; n++ {
				uc[n] = src[n*nc+c]
			}
			tensor3ApplyBuf(np1, px, py, pz, uc, oc, t1, t2)
			for n := 0; n < m.Np; n++ {
				acc[n] += oc[n]
			}
		}
		for n := 0; n < m.Np; n++ {
			dst[n*nc+c] = acc[n]
		}
	}
}
