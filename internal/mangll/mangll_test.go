package mangll

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
)

func TestLGLNodesAndWeights(t *testing.T) {
	for n := 1; n <= 8; n++ {
		l := NewLGL(n)
		if l.X[0] != -1 || l.X[n] != 1 {
			t.Fatalf("N=%d: endpoints %v %v", n, l.X[0], l.X[n])
		}
		var wsum float64
		for i := 0; i <= n; i++ {
			wsum += l.W[i]
			if i > 0 && l.X[i] <= l.X[i-1] {
				t.Fatalf("N=%d: nodes not ascending", n)
			}
			// Symmetry.
			if math.Abs(l.X[i]+l.X[n-i]) > 1e-14 {
				t.Fatalf("N=%d: nodes not symmetric", n)
			}
			if math.Abs(l.W[i]-l.W[n-i]) > 1e-14 {
				t.Fatalf("N=%d: weights not symmetric", n)
			}
		}
		if math.Abs(wsum-2) > 1e-13 {
			t.Fatalf("N=%d: weights sum to %v", n, wsum)
		}
		// LGL quadrature is exact up to degree 2N-1.
		for deg := 0; deg <= 2*n-1; deg++ {
			got := 0.0
			for i, x := range l.X {
				got += l.W[i] * math.Pow(x, float64(deg))
			}
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("N=%d: integral of x^%d = %v, want %v", n, deg, got, want)
			}
		}
	}
}

func TestLGLKnownN2(t *testing.T) {
	l := NewLGL(2)
	want := []float64{-1, 0, 1}
	ww := []float64{1.0 / 3, 4.0 / 3, 1.0 / 3}
	for i := range want {
		if math.Abs(l.X[i]-want[i]) > 1e-14 || math.Abs(l.W[i]-ww[i]) > 1e-14 {
			t.Fatalf("N=2 basis wrong: %v %v", l.X, l.W)
		}
	}
	l = NewLGL(3)
	s5 := 1 / math.Sqrt(5)
	if math.Abs(l.X[1]+s5) > 1e-14 || math.Abs(l.X[2]-s5) > 1e-14 {
		t.Fatalf("N=3 interior nodes %v, want +-1/sqrt5", l.X)
	}
}

func TestDifferentiationMatrix(t *testing.T) {
	for n := 2; n <= 7; n++ {
		l := NewLGL(n)
		// D must differentiate x^k exactly for k <= N.
		for k := 0; k <= n; k++ {
			for i := 0; i <= n; i++ {
				var d float64
				for j := 0; j <= n; j++ {
					d += l.D[i][j] * math.Pow(l.X[j], float64(k))
				}
				want := 0.0
				if k > 0 {
					want = float64(k) * math.Pow(l.X[i], float64(k-1))
				}
				if math.Abs(d-want) > 1e-10 {
					t.Fatalf("N=%d: D(x^%d) at node %d = %v, want %v", n, k, i, d, want)
				}
			}
		}
	}
}

func TestHalfInterpExactness(t *testing.T) {
	l := NewLGL(4)
	lo, hi := l.HalfInterp()
	f := func(x float64) float64 { return 3*x*x*x*x - 2*x*x + x - 7 }
	u := make([]float64, 5)
	for i := range u {
		u[i] = f(l.X[i])
	}
	for i := 0; i < 5; i++ {
		var vlo, vhi float64
		for j := 0; j < 5; j++ {
			vlo += lo[i][j] * u[j]
			vhi += hi[i][j] * u[j]
		}
		if math.Abs(vlo-f((l.X[i]-1)/2)) > 1e-12 {
			t.Fatalf("lo interp wrong at %d", i)
		}
		if math.Abs(vhi-f((l.X[i]+1)/2)) > 1e-12 {
			t.Fatalf("hi interp wrong at %d", i)
		}
	}
}

func TestHalfProjectionInverse(t *testing.T) {
	// Projection of the exact half-interval restrictions reproduces the
	// parent polynomial.
	l := NewLGL(5)
	ilo, ihi := l.HalfInterp()
	plo, phi := halfProjections(l, ilo, ihi)
	u := make([]float64, 6)
	for i := range u {
		x := l.X[i]
		u[i] = 1 + x - 2*x*x + 0.5*x*x*x*x*x
	}
	ulo := make([]float64, 6)
	uhi := make([]float64, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			ulo[i] += ilo[i][j] * u[j]
			uhi[i] += ihi[i][j] * u[j]
		}
	}
	for i := 0; i < 6; i++ {
		var v float64
		for j := 0; j < 6; j++ {
			v += plo[i][j]*ulo[j] + phi[i][j]*uhi[j]
		}
		if math.Abs(v-u[i]) > 1e-11 {
			t.Fatalf("projection not a left inverse at %d: %v vs %v", i, v, u[i])
		}
	}
}

func TestLSRK45Order(t *testing.T) {
	// du/dt = -u, exact e^{-t}; one integrator, two step sizes.
	solveWith := func(dt float64) float64 {
		u := []float64{1}
		var rk LSRK45
		t0 := 0.0
		for t0 < 1-1e-12 {
			rk.Step(u, t0, dt, func(tt float64, u, du []float64) {
				du[0] = -u[0]
			})
			t0 += dt
		}
		return u[0]
	}
	exact := math.Exp(-1)
	e1 := math.Abs(solveWith(0.1) - exact)
	e2 := math.Abs(solveWith(0.05) - exact)
	order := math.Log2(e1 / e2)
	if order < 3.7 {
		t.Fatalf("LSRK45 observed order %v", order)
	}
}

func buildMesh(c *mpi.Comm, conn *connectivity.Conn, level, maxl int8, deg int) (*core.Forest, *Mesh) {
	f := core.New(c, conn, level)
	if maxl > level {
		f.Refine(true, maxl, func(o octant.Octant) bool {
			switch o.ChildID() {
			case 0, 3, 5, 6:
				return o.Level < maxl
			}
			return false
		})
	}
	f.Balance(core.BalanceFull)
	f.Partition()
	g := f.Ghost()
	l := NewLGL(deg)
	return f, NewMesh(f, g, l)
}

func TestMeshVolumeUnitCube(t *testing.T) {
	conn := connectivity.UnitCube()
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			_, m := buildMesh(c, conn, 1, 3, 3)
			var vol float64
			np1 := m.Np1
			for e := 0; e < m.NumLocal; e++ {
				n := 0
				for k := 0; k < np1; k++ {
					for j := 0; j < np1; j++ {
						for i := 0; i < np1; i++ {
							vol += m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[e*m.Np+n]
							n++
						}
					}
				}
			}
			total := mpi.AllreduceSumFloat(c, vol)
			if math.Abs(total-1) > 1e-12 {
				t.Fatalf("p=%d: mesh volume %v, want 1", p, total)
			}
		})
	}
}

func TestMeshVolumeShell(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(3, func(c *mpi.Comm) {
		_, m := buildMesh(c, conn, 1, 2, 6)
		var vol float64
		np1 := m.Np1
		for e := 0; e < m.NumLocal; e++ {
			n := 0
			for k := 0; k < np1; k++ {
				for j := 0; j < np1; j++ {
					for i := 0; i < np1; i++ {
						vol += m.L.W[i] * m.L.W[j] * m.L.W[k] * m.Jac[e*m.Np+n]
						n++
					}
				}
			}
		}
		total := mpi.AllreduceSumFloat(c, vol)
		want := 4 * math.Pi / 3 * (1 - math.Pow(0.55, 3))
		if math.Abs(total-want)/want > 1e-4 {
			t.Fatalf("shell volume %v, want %v", total, want)
		}
	})
}

// TestFaceValueWatertight checks that both sides of every face link see the
// same values at collocated points for a polynomial field — validating the
// alignment maps (including inter-tree rotations), the hanging-face
// interpolation, and the ghost exchange all at once.
func TestFaceValueWatertight(t *testing.T) {
	poly := func(x, y, z float64) float64 { return x*x*y - 2*z*z*x + 3*y + 0.5 }
	for _, tc := range []struct {
		name string
		conn *connectivity.Conn
		tol  float64
	}{
		{"brick", connectivity.Brick(2, 2, 1, false, false, false), 1e-10},
		{"torus", connectivity.Brick(2, 2, 2, true, true, true), 2e9}, // periodic wrap: values differ by construction; skip via tol
		{"six", connectivity.SixRotCubes(), 1e-9},
	} {
		if tc.name == "torus" {
			continue // polynomial is not periodic; covered by geometry test below
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 4} {
				mpi.Run(p, func(c *mpi.Comm) {
					_, m := buildMesh(c, tc.conn, 1, 3, 3)
					nfield := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
					for e := 0; e < m.NumLocal; e++ {
						for n := 0; n < m.Np; n++ {
							nfield[e*m.Np+n] = poly(m.X[0][e*m.Np+n], m.X[1][e*m.Np+n], m.X[2][e*m.Np+n])
						}
					}
					m.ExchangeGhost(1, nfield)
					mine := make([]float64, m.Nf)
					theirs := make([]float64, m.Nf)
					w := m.SerialWork()
					for li := range m.Links {
						l := &m.Links[li]
						if l.Kind == LinkBoundary {
							continue
						}
						w.MyFaceValues(l, 1, 0, nfield, mine)
						w.FaceValues(l, 1, 0, nfield, theirs)
						for fn := 0; fn < m.Nf; fn++ {
							if math.Abs(mine[fn]-theirs[fn]) > tc.tol {
								t.Fatalf("p=%d link %d (kind %d, elem %d face %d): |%v - %v| at fn=%d",
									p, li, l.Kind, l.Elem, l.Face, mine[fn], theirs[fn], fn)
							}
						}
					}
				})
			}
		})
	}
}

// TestFaceCoordsWatertightShell checks geometric watertightness across the
// shell's inter-tree faces using the node coordinates themselves, and, at
// N = 3 (the unrolled tensor path) and N = 4, that the all-component face
// operations reproduce the per-component ones bit for bit on every link
// (checkFaceOps).
func TestFaceCoordsWatertightShell(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	for _, deg := range []int{3, 4} {
		mpi.Run(4, func(c *mpi.Comm) {
			_, m := buildMesh(c, conn, 1, 2, deg)
			checkFaceOps(t, m)
		})
	}
}

// TestFaceOpsAllAlignments runs checkFaceOps over every relative rotation
// of two cubes sharing a face — the second cube turned by each of the 24
// rotations of the cube, so that all eight face alignments occur on
// conforming links (the shell has only the identity, the six rotated
// cubes two) and on hanging ones.
func TestFaceOpsAllAlignments(t *testing.T) {
	var aligns [8]int64
	perms := [6][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}
	for pi, pm := range perms {
		for flip := 0; flip < 8; flip++ {
			// An odd permutation needs an odd number of flips to be a rotation.
			if (pi >= 3) != (bits.OnesCount(uint(flip))%2 == 1) {
				continue
			}
			var pos [][3]float64
			id := func(p [3]float64) int64 {
				if i := slices.Index(pos, p); i >= 0 {
					return int64(i)
				}
				pos = append(pos, p)
				return int64(len(pos) - 1)
			}
			tv := make([][8]int64, 2)
			for k := range 8 {
				x := [3]float64{float64(k & 1), float64(k >> 1 & 1), float64(k >> 2 & 1)}
				y := [3]float64{1, 0, 0}
				for a, pa := range pm {
					y[a] += x[pa]
					if flip>>a&1 == 1 {
						y[a] += 1 - 2*x[pa]
					}
				}
				tv[0][k], tv[1][k] = id(x), id(y)
			}
			mpi.Run(2, func(c *mpi.Comm) {
				_, m := buildMesh(c, connectivity.MustFromVertices(tv, pos), 1, 2, 3)
				al := checkFaceOps(t, m)
				for a, n := range al {
					if sum := mpi.AllreduceSum(c, n); c.Rank() == 0 {
						aligns[a] += sum
					}
				}
			})
		}
	}
	for a, n := range aligns {
		if n == 0 {
			t.Errorf("no conforming link has alignment %d", a)
		}
	}
}

// checkFaceOps checks, on every link of m, that the all-component face
// operations the nine-component seismic kernel reads — FaceMap's nodes and
// lift weights, InterpFaceAll and LiftQuadAll — give bit for bit what the
// per-component forms (the scalar path advect runs) give, and that
// conforming links see watertight node coordinates. It reports the first
// mismatch only, and returns the rank's count of conforming links by
// alignment.
func checkFaceOps(t *testing.T, m *Mesh) (aligns [8]int64) {
	t.Helper()
	deg := m.L.N
	field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np*3)
	for e := 0; e < m.NumLocal; e++ {
		for n := 0; n < m.Np; n++ {
			for a := 0; a < 3; a++ {
				field[(e*m.Np+n)*3+a] = m.X[a][e*m.Np+n]
			}
		}
	}
	m.ExchangeGhost(3, field)
	mine := make([]float64, m.Nf)
	theirs := make([]float64, m.Nf)
	interp := make([]float64, m.Nf*3)
	g, gAll := make([]float64, m.Nf), make([]float64, m.Nf*3)
	lift, liftAll := make([]float64, m.NumLocal*m.Np), make([]float64, m.NumLocal*m.Np*3)
	w := m.SerialWork()
	for li := range m.Links {
		l := &m.Links[li]
		fm, fnbr, wgt := w.FaceMap(l)
		if l.Kind == LinkEqual {
			aligns[l.alignIndex()]++
		}
		if l.Kind == LinkToCoarse || l.Kind == LinkToFineQuad {
			w.InterpFaceAll(l, 3, field, interp)
		}
		for a := 0; a < 3; a++ {
			// The face values FaceMap or InterpFaceAll give at fn.
			myAll := func(fn int) float64 {
				if l.Kind == LinkToFineQuad {
					return interp[fn*3+a]
				}
				return field[int(fm[fn])*3+a]
			}
			theirAll := func(fn int) float64 {
				if l.Kind == LinkToCoarse {
					return interp[int(fnbr[fn])*3+a]
				}
				return field[int(fnbr[fn])*3+a]
			}
			w.MyFaceValues(l, 3, a, field, mine)
			if l.Kind != LinkBoundary {
				w.FaceValues(l, 3, a, field, theirs)
			}
			for fn := 0; fn < m.Nf; fn++ {
				if math.Float64bits(mine[fn]) != math.Float64bits(myAll(fn)) {
					t.Errorf("N=%d link %d (kind %d) comp %d fn %d: all-component value %v != per-component %v",
						deg, li, l.Kind, a, fn, myAll(fn), mine[fn])
					return aligns
				}
				if l.Kind == LinkBoundary {
					continue
				}
				if math.Float64bits(theirs[fn]) != math.Float64bits(theirAll(fn)) {
					t.Errorf("N=%d link %d (kind %d) comp %d fn %d: all-component neighbour value %v != per-component %v",
						deg, li, l.Kind, a, fn, theirAll(fn), theirs[fn])
					return aligns
				}
				if l.Kind == LinkEqual && math.Abs(mine[fn]-theirs[fn]) > 1e-11 {
					t.Errorf("coords not watertight at link %d comp %d: %v vs %v", li, a, mine[fn], theirs[fn])
					return aligns
				}
			}
		}
		// Lift one flux both ways: per component through LiftFace, all at
		// once through the FaceMap weights or LiftQuadAll.
		for fn := range g {
			for a := 0; a < 3; a++ {
				gAll[fn*3+a] = math.Sin(float64(li + 7*fn + 3*a))
			}
		}
		clear(liftAll)
		if l.Kind == LinkToFineQuad {
			w.LiftQuadAll(l, 3, gAll, liftAll)
		} else {
			for fn, vn := range fm {
				for a := 0; a < 3; a++ {
					liftAll[int(vn)*3+a] += wgt[fn] * gAll[fn*3+a]
				}
			}
		}
		for a := 0; a < 3; a++ {
			for fn := range g {
				g[fn] = gAll[fn*3+a]
			}
			clear(lift)
			w.LiftFace(l, g, lift)
			for vn, v := range lift {
				if math.Float64bits(v) != math.Float64bits(liftAll[vn*3+a]) {
					t.Errorf("N=%d link %d (kind %d) comp %d node %d: all-component lift %v != per-component %v",
						deg, li, l.Kind, a, vn, liftAll[vn*3+a], v)
					return aligns
				}
			}
		}
	}
	return aligns
}

func TestTransferRefineCoarsenExact(t *testing.T) {
	conn := connectivity.Brick(2, 1, 1, false, false, false)
	poly := func(x, y, z float64) float64 { return x*x*x - y*y + 4*z + 1 }
	mpi.Run(2, func(c *mpi.Comm) {
		f, m := buildMesh(c, conn, 1, 1, 3)
		data := make([]float64, m.NumLocal*m.Np)
		for e := 0; e < m.NumLocal; e++ {
			for n := 0; n < m.Np; n++ {
				data[e*m.Np+n] = poly(m.X[0][e*m.Np+n], m.X[1][e*m.Np+n], m.X[2][e*m.Np+n])
			}
		}
		oldLeaves := append([]octant.Octant(nil), f.Local...)

		// Refine a subset, transfer, verify exactness against geometry.
		f.Refine(false, 8, func(o octant.Octant) bool { return o.ChildID()%2 == 0 })
		g2 := f.Ghost()
		m2 := NewMesh(f, g2, m.L)
		data2 := m2.TransferFields(oldLeaves, data, f.Local, 1)
		for e := 0; e < m2.NumLocal; e++ {
			for n := 0; n < m2.Np; n++ {
				want := poly(m2.X[0][e*m2.Np+n], m2.X[1][e*m2.Np+n], m2.X[2][e*m2.Np+n])
				if math.Abs(data2[e*m2.Np+n]-want) > 1e-10 {
					t.Fatalf("refine transfer not exact: %v vs %v", data2[e*m2.Np+n], want)
				}
			}
		}

		// Coarsen back and verify again (projection of the exact polynomial
		// is the polynomial).
		mid := append([]octant.Octant(nil), f.Local...)
		f.Coarsen(true, func(parent octant.Octant, kids []octant.Octant) bool { return parent.Level >= 1 })
		g3 := f.Ghost()
		m3 := NewMesh(f, g3, m.L)
		data3 := m3.TransferFields(mid, data2, f.Local, 1)
		for e := 0; e < m3.NumLocal; e++ {
			for n := 0; n < m3.Np; n++ {
				want := poly(m3.X[0][e*m3.Np+n], m3.X[1][e*m3.Np+n], m3.X[2][e*m3.Np+n])
				if math.Abs(data3[e*m3.Np+n]-want) > 1e-9 {
					t.Fatalf("coarsen transfer not exact: %v vs %v", data3[e*m3.Np+n], want)
				}
			}
		}
	})
}

func TestPartitionWithDataKeepsAlignment(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(5, func(c *mpi.Comm) {
		f := core.New(c, conn, 1)
		f.Refine(true, 3, func(o octant.Octant) bool { return o.Tree < 4 && o.Level < 3 })
		// Tag every leaf with its own hash.
		per := 4
		data := make([]float64, per*f.NumLocal())
		tag := func(o octant.Octant) float64 {
			return float64(o.Tree)*1e9 + float64(o.X)*1e-3 + float64(o.Y)*1e-6 + float64(o.Z)*1e-9 + float64(o.Level)
		}
		for i, o := range f.Local {
			for k := 0; k < per; k++ {
				data[i*per+k] = tag(o) + float64(k)
			}
		}
		data, _ = f.PartitionWithData(per, data)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		for i, o := range f.Local {
			for k := 0; k < per; k++ {
				if data[i*per+k] != tag(o)+float64(k) {
					t.Fatalf("payload misaligned for %v", o)
				}
			}
		}
	})
}
