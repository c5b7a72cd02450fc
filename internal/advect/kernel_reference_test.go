package advect

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mangll"
	"repro/internal/mpi"
)

// referenceRHS is the right-hand side as it was before links were
// classified and the volume term fused — three product / derivative /
// accumulate passes per element, and the full gather, per-node flux choice
// and lift for every interior link from both sides — kept as the oracle
// RHS is compared against, bit for bit. Two things differ from the code it
// preserves: the derivative goes through a scratch array and is copied
// back (Work.ApplyD no longer accepts aliased arguments; the values are
// the same), and the two flux products are rounded explicitly, which is
// what they were on amd64 and what defines them where the compiler may
// fuse a multiply into the subtraction. It sweeps all volumes and then all
// links ascending: per element the driver's order, volume first, then its
// links in ascending index.
func referenceRHS(s *Solver, dc []float64) {
	m := s.Mesh
	w := m.SerialWork()
	m.ExchangeGhost(1, s.buf)
	np := m.Np
	tmp, fa, der := make([]float64, np), make([]float64, np), make([]float64, np)
	c := s.buf
	for e := 0; e < m.NumLocal; e++ {
		base := e * np
		for n := range tmp {
			tmp[n] = 0
		}
		for a := 0; a < 3; a++ {
			for n := 0; n < np; n++ {
				fa[n] = s.cv[a][base+n] * c[base+n]
			}
			w.ApplyD(a, fa, der)
			copy(fa, der)
			for n := 0; n < np; n++ {
				tmp[n] += fa[n]
			}
		}
		for n := 0; n < np; n++ {
			dc[base+n] -= tmp[n] / m.Jac[base+n]
		}
	}
	mine, theirs, g := make([]float64, m.Nf), make([]float64, m.Nf), make([]float64, m.Nf)
	for li := range m.Links {
		l := &m.Links[li]
		if l.Kind == mangll.LinkBoundary {
			continue // un = 0 on the shell boundaries for the rotation field
		}
		unw := s.unw[li*m.Nf : (li+1)*m.Nf]
		w.MyFaceValues(l, 1, 0, s.buf, mine)
		w.FaceValues(l, 1, 0, s.buf, theirs)
		for fn := 0; fn < m.Nf; fn++ {
			flux := float64(unw[fn] * mine[fn]) // F . n
			var star float64
			switch {
			case s.Opts.CentralFlux:
				star = unw[fn] * (mine[fn] + theirs[fn]) / 2
			case unw[fn] >= 0:
				star = float64(unw[fn] * mine[fn])
			default:
				star = float64(unw[fn] * theirs[fn])
			}
			g[fn] = flux - star
		}
		w.LiftFace(l, g, dc)
	}
}

// swirl changes the sign of its normal component inside faces of the six
// rotated cubes; front sits next to the face cube 0 shares with the
// rotated sixth cube, so hanging faces cross it.
func swirl(x, y, z float64) (float64, float64, float64) { return -y, x, 0.3 * math.Sin(x) }

func front(x, y, z float64) float64 {
	dx, dy, dz := x-1.9, y-0.8, z-1.0
	return math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * 0.3 * 0.3))
}

// spike overwrites part of the state with the values the skipped work's
// identity argument has to survive: exact zeros of both signs, denormals,
// and sign flips — on face nodes too, every node index being hit.
func spike(c []float64) {
	for i := range c {
		switch i % 11 {
		case 0:
			c[i] = 0
		case 2:
			c[i] = math.Copysign(0, -1)
		case 3:
			c[i] = 5e-324
		case 5:
			c[i] = -2.5e-310
		case 7:
			c[i] = -c[i]
		}
	}
}

// TestRHSMatchesReference compares RHS with referenceRHS bitwise on the
// adapted shell (hanging faces, rotated inter-tree faces, outflow / inflow
// / noise-sign links) and on the six rotated cubes in the swirl field (sign
// changes inside faces), across rank counts, workers and both fluxes, for
// the projected state and the spiked one.
func TestRHSMatchesReference(t *testing.T) {
	for _, mesh := range []string{"shell", "six"} {
		for _, p := range []int{1, 2, 3} {
			for _, w := range []int{1, 2} {
				for _, central := range []bool{false, true} {
					what := fmt.Sprintf("%s P=%d w=%d central=%v", mesh, p, w, central)
					mpi.RunOpt(p, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
						o := smallOpts()
						o.CentralFlux = central
						var s *Solver
						if mesh == "shell" {
							s = NewShell(c, o)
						} else {
							s = NewCustom(c, connectivity.SixRotCubes(), o, swirl, front)
						}
						got, want := make([]float64, len(s.C)), make([]float64, len(s.C))
						for _, state := range []string{"projected", "spiked"} {
							if state == "spiked" {
								spike(s.C)
							}
							clear(want)
							referenceRHS(s, want)
							clear(got)
							s.RHS(s.C, got)
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Errorf("%s, %s state, rank %d: node %d of element %d: %v (%#x), reference %v (%#x)",
										what, state, c.Rank(), i%s.Mesh.Np, i/s.Mesh.Np,
										got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
									break
								}
							}
						}
					})
				}
			}
		}
	}
}

// linkCensus counts a rank's links by what faceTerm does with them.
func linkCensus(s *Solver) (boundary, skip, inflow, general int64) {
	for li, l := range s.Mesh.Links {
		switch {
		case l.Kind == mangll.LinkBoundary:
			boundary++
		case s.cls[li] == linkSkip:
			skip++
		case s.cls[li] == linkInflow:
			inflow++
		default:
			general++
		}
	}
	return
}

// TestLinkClassCensus checks the classification against its definition on
// every link, and that the adapted shell has links of every class: domain
// boundary, pure outflow (skipped), pure inflow, and mixed sign. The
// central flux needs both sides everywhere, so it may skip or shortcut
// nothing but the domain boundary.
func TestLinkClassCensus(t *testing.T) {
	for _, central := range []bool{false, true} {
		mpi.Run(2, func(c *mpi.Comm) {
			o := smallOpts()
			o.CentralFlux = central
			s := NewShell(c, o)
			m := s.Mesh
			for li, l := range m.Links {
				out, in := true, true
				for _, u := range s.unw[li*m.Nf : (li+1)*m.Nf] {
					out, in = out && u >= 0, in && u < 0
				}
				want := linkGeneral
				switch {
				case l.Kind == mangll.LinkBoundary:
					want = linkSkip
				case central:
				case out:
					want = linkSkip
				case in:
					want = linkInflow
				}
				if s.cls[li] != want {
					t.Fatalf("central=%v rank %d: link %d has class %d, want %d", central, c.Rank(), li, s.cls[li], want)
				}
			}
			boundary, skip, inflow, general := linkCensus(s)
			if boundary+skip+inflow+general != int64(len(m.Links)) {
				t.Errorf("central=%v rank %d: %d+%d+%d+%d links classified, mesh has %d",
					central, c.Rank(), boundary, skip, inflow, general, len(m.Links))
			}
			boundary, skip = mpi.AllreduceSum(c, boundary), mpi.AllreduceSum(c, skip)
			inflow, general = mpi.AllreduceSum(c, inflow), mpi.AllreduceSum(c, general)
			switch {
			case central && (skip != 0 || inflow != 0 || boundary == 0 || general == 0):
				t.Errorf("central flux: %d boundary, %d skip, %d inflow, %d general links; want only boundary and general",
					boundary, skip, inflow, general)
			case !central && (boundary == 0 || skip == 0 || inflow == 0 || general == 0):
				t.Errorf("upwind flux: %d boundary, %d skip, %d inflow, %d general links; want some of each",
					boundary, skip, inflow, general)
			}
		})
	}
}

// TestDTMatchesBruteForce pins the per-element speed table DT reduces: after
// three adapt cycles that carry it (and compute it for the elements each
// cycle creates or receives), dt equals, bitwise, the step computed from the
// velocity model at every node.
func TestDTMatchesBruteForce(t *testing.T) {
	for _, p := range []int{1, 2} {
		mpi.Run(p, func(c *mpi.Comm) {
			s := NewCustom(c, connectivity.SixRotCubes(), smallOpts(), swirl, front)
			changed := 0
			for cycle := 0; cycle < 3; cycle++ {
				dt := s.DT()
				for i := 0; i < 12; i++ {
					s.Step(dt)
				}
				if s.Adapt() {
					changed++
				}
				m := s.Mesh
				vmax := 0.0
				for i := 0; i < m.NumLocal*m.Np; i++ {
					ux, uy, uz := s.Velocity(m.X[0][i], m.X[1][i], m.X[2][i])
					if v := math.Sqrt(ux*ux + uy*uy + uz*uz); v > vmax {
						vmax = v
					}
				}
				vmax = mpi.AllreduceMax(c, vmax)
				n := float64(s.Opts.Degree)
				if want := s.Opts.CFL * m.MinLen / (vmax * (2*n + 1)); s.DT() != want {
					t.Errorf("P=%d cycle %d: DT() = %v, from every node %v", p, cycle, s.DT(), want)
				}
			}
			if changed == 0 {
				t.Errorf("P=%d: no adapt cycle changed the mesh", p)
			}
		})
	}
}
