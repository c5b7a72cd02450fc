package stokes

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/octant"
)

// The hanging-constraint kernels as they were written before the
// constraint algebra moved behind one gather and one scatter: every
// consumer spelled out its own loop over a corner's anchors. They are kept
// here as the bitwise oracle of the shared gather and scatter, with the
// same arithmetic in the same order; they take the operator as an argument,
// and refBuildRHS samples the force at the corners itself.

func refGatherElem(op *Operator, e int, x []float64) (v [24]float64, p [8]float64) {
	for c := 0; c < 8; c++ {
		ref := op.Nodes.Corner(e, c)
		w := 1 / float64(len(ref))
		for _, ni := range ref {
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

func refScatterElem(op *Operator, e int, v *[24]float64, p *[8]float64, y []float64) {
	for c := 0; c < 8; c++ {
		ref := op.Nodes.Corner(e, c)
		w := 1 / float64(len(ref))
		for _, ni := range ref {
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

func refApply(op *Operator, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for e := range op.F.Local {
		v, p := refGatherElem(op, e, x)
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
		refScatterElem(op, e, &yv, &yp, y)
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

func refApplyRaw(op *Operator, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for e := range op.F.Local {
		var v [24]float64
		var p [8]float64
		for c := 0; c < 8; c++ {
			ref := op.Nodes.Corner(e, c)
			w := 1 / float64(len(ref))
			for _, ni := range ref {
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
			ref := op.Nodes.Corner(e, c)
			w := 1 / float64(len(ref))
			for _, ni := range ref {
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

func refBuildRHS(op *Operator, force func(x [3]float64) [3]float64) []float64 {
	rhs := make([]float64, 4*op.NN)
	for e := range op.F.Local {
		var fc [8][3]float64
		for c := 0; c < 8; c++ {
			fc[c] = force(op.Geo[e][c])
		}
		ev := ElemRHS(&op.Geo[e], fc)
		var zero [8]float64
		refScatterElem(op, e, &ev, &zero, rhs)
	}
	op.Nodes.AssembleSumVec(4, rhs)
	for i := 0; i < op.NN; i++ {
		if op.BC[i] {
			rhs[i*4+0], rhs[i*4+1], rhs[i*4+2] = 0, 0, 0
		}
	}
	return rhs
}

func refCornerScalar(op *Operator, e int, t []float64) (out [8]float64) {
	for c := 0; c < 8; c++ {
		ref := op.Nodes.Corner(e, c)
		w := 1 / float64(len(ref))
		for _, ni := range ref {
			out[c] += w * t[ni]
		}
	}
	return
}

func refSchurDiag(op *Operator) []float64 {
	d := make([]float64, op.NN)
	for e := range op.F.Local {
		em := op.EM[e]
		for c := 0; c < 8; c++ {
			ref := op.Nodes.Corner(e, c)
			w := 1 / float64(len(ref))
			for _, ni := range ref {
				d[ni] += w * em.MInt[c] / op.Eta[e]
			}
		}
	}
	op.Nodes.AssembleSum(d)
	return d
}

func refLumped(op *Operator) []float64 {
	l := make([]float64, op.NN)
	for el := range op.F.Local {
		em := op.EM[el]
		for c := 0; c < 8; c++ {
			ref := op.Nodes.Corner(el, c)
			w := 1 / float64(len(ref))
			for _, ni := range ref {
				l[ni] += w * em.MInt[c]
			}
		}
	}
	op.Nodes.AssembleSum(l)
	return l
}

func refResidual(e *EnergyOp, t, vel []float64, r []float64) {
	op := e.Op
	for i := range r {
		r[i] = 0
	}
	for el := range op.F.Local {
		tc := refCornerScalar(op, el, t)
		vc, _ := refGatherElem(op, el, vel)
		eg := &op.Geo[el]
		qd := elemQuad(eg)
		hx := eg[7][0] - eg[0][0]
		hy := eg[7][1] - eg[0][1]
		hz := eg[7][2] - eg[0][2]
		hele := math.Sqrt(hx*hx+hy*hy+hz*hz) / math.Sqrt(3)

		var re [8]float64
		for q := range qd {
			w := qd[q].wjb
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
		for c := 0; c < 8; c++ {
			ref := op.Nodes.Corner(el, c)
			w := 1 / float64(len(ref))
			for _, ni := range ref {
				r[ni] += w * re[c]
			}
		}
	}
	op.Nodes.AssembleSum(r)
}

// mix is splitmix64's finalizer: a value per (node, component) that does
// not depend on the partition.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// randomVec fills a vector with nc components per local node from the
// node keys, so shared nodes hold the same values on every rank.
func randomVec(op *Operator, nc int, salt uint64) []float64 {
	x := make([]float64, nc*op.NN)
	for i, k := range op.Nodes.Keys {
		h := uint64(k.Tree)<<60 ^ uint64(k.X)<<40 ^ uint64(k.Y)<<20 ^ uint64(k.Z) ^ salt
		for a := 0; a < nc; a++ {
			x[nc*i+a] = float64(int64(mix(h+uint64(a))>>11))/(1<<52) - 1
		}
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConstraintKernelsMatchReference compares the shared constrained
// gather and scatter, through every consumer, with the hand-written loops
// they replaced, bit for bit, on the hanging cube mesh at P = 1 and 2:
// Apply, the inhomogeneous Dirichlet lift (ApplyRaw on
// TestStokesExactTrilinear's boundary data), BuildRHS, CornerScalar,
// VelocityAt, the Schur diagonal, and the energy operator's lumped mass
// and residual.
func TestConstraintKernelsMatchReference(t *testing.T) {
	exact := func(x [3]float64) [3]float64 {
		return [3]float64{x[1] * x[2], x[0] * x[2], x[0] * x[1]}
	}
	for _, p := range []int{1, 2} {
		mpi.Run(p, func(c *mpi.Comm) {
			_, op := buildCubeOp(c, 3, func(e int, _ octant.Octant) float64 { return 1 + float64(e%7) })
			what := func(s string) string { return fmt.Sprintf("P=%d rank %d: %s", p, c.Rank(), s) }
			var hanging int64
			for _, v := range op.Nodes.ElementNodes {
				if v < 0 {
					hanging++
				}
			}
			if mpi.AllreduceSum(c, hanging) == 0 {
				t.Fatalf("P=%d: the cube mesh has no hanging corners", p)
			}
			n := 4 * op.NN
			x := randomVec(op, 4, 1)
			got, want := make([]float64, n), make([]float64, n)
			op.Apply(x, got)
			refApply(op, x, want)
			sameBits(t, what("Apply"), got, want)

			xg := make([]float64, n)
			for i := 0; i < op.NN; i++ {
				if op.BC[i] {
					g := exact(op.NodePos(i))
					copy(xg[4*i:4*i+3], g[:])
				}
			}
			op.ApplyRaw(xg, got)
			refApplyRaw(op, xg, want)
			sameBits(t, what("ApplyRaw lift"), got, want)
			op.ApplyRaw(x, got)
			refApplyRaw(op, x, want)
			sameBits(t, what("ApplyRaw"), got, want)

			force := func(q [3]float64) [3]float64 {
				return [3]float64{math.Sin(3 * q[1]), q[0] * q[2], math.Cos(q[0] + q[1])}
			}
			sameBits(t, what("BuildRHSElem"), op.BuildRHSElem(cornerForce(op, force)), refBuildRHS(op, force))
			sameBits(t, what("Schur diagonal"), op.schurDiag, refSchurDiag(op))

			ts := randomVec(op, 1, 2)
			for e := range op.F.Local {
				gotC, wantC := op.CornerScalar(e, ts), refCornerScalar(op, e, ts)
				sameBits(t, what(fmt.Sprintf("CornerScalar of element %d", e)), gotC[:], wantC[:])
				gotV, wantV := op.VelocityAt(e, x), [8][3]float64{}
				v, _ := refGatherElem(op, e, x)
				for k := range wantV {
					wantV[k] = [3]float64{v[3*k], v[3*k+1], v[3*k+2]}
				}
				for k := range gotV {
					sameBits(t, what(fmt.Sprintf("VelocityAt of element %d", e)), gotV[k][:], wantV[k][:])
				}
			}

			en := NewEnergyOp(op, 0.3, 0.7)
			sameBits(t, what("lumped mass"), en.lumped, refLumped(op))
			gotR, wantR := make([]float64, op.NN), make([]float64, op.NN)
			en.Residual(ts, x, gotR)
			refResidual(en, ts, x, wantR)
			sameBits(t, what("energy Residual"), gotR, wantR)
		})
	}
}
