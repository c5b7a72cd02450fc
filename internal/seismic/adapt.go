package seismic

import (
	"math"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/sim"
)

// elemSizeKm estimates the physical diameter of an octant under the ball
// geometry, in km (the geometry is built on a unit-radius ball).
func elemSizeKm(geom connectivity.Geometry, o octant.Octant) float64 {
	h := float64(o.Len()) / float64(octant.RootLen)
	t0 := [3]float64{
		connectivity.RefCoord(o.X), connectivity.RefCoord(o.Y), connectivity.RefCoord(o.Z),
	}
	a := geom.X(o.Tree, t0)
	b := geom.X(o.Tree, [3]float64{t0[0] + h, t0[1] + h, t0[2] + h})
	var d float64
	for i := 0; i < 3; i++ {
		d += (a[i] - b[i]) * (a[i] - b[i])
	}
	return math.Sqrt(d) / math.Sqrt(3) * EarthRadiusKm
}

// BuildEarthForest creates the forest for global wave propagation: the
// 7-tree solid ball meshed adaptively so that every element supports the
// requested points per wavelength at the source frequency — the "parallel
// adaptive meshing ... to tailor the mesh size to the minimum local
// seismic wavelength" of §IV.B, performed online as the paper requires.
// It returns the balanced, partitioned forest.
func BuildEarthForest(comm *mpi.Comm, opts Options) *core.Forest {
	conn := EarthConn()
	f := core.New(comm, conn, opts.MinLevel)
	geom := conn.Geometry()
	needRefine := func(o octant.Octant) bool {
		if o.Level >= opts.MaxLevel {
			return false
		}
		ctr := connectivity.OctantCenter(geom, o)
		r := math.Sqrt(ctr[0]*ctr[0]+ctr[1]*ctr[1]+ctr[2]*ctr[2]) * EarthRadiusKm
		lam := MinWavelengthKm(r, opts.FreqHz)
		h := elemSizeKm(geom, o)
		// Points per wavelength: (N+1) nodes across h must give >= PPW
		// points per lambda.
		return h*opts.PPW > lam*float64(opts.Degree+1)
	}
	f.Refine(true, opts.MaxLevel, needRefine)
	f.Balance(core.BalanceFull)
	f.Partition()
	return f
}

// NewEarthSolver builds the full dGea setup: wavelength-adapted ball mesh
// with the PREM material model (radius normalized to the unit ball).
func NewEarthSolver(comm *mpi.Comm, opts Options) *Solver {
	return NewSolver(comm, BuildEarthForest(comm, opts), opts, PREMAt)
}

// EarthApp is the runtime's handle on the earth run the drivers and the
// job server execute: NewEarthSolver excited by EarthSource.
func EarthApp(opts Options) sim.App {
	src := EarthSource(opts)
	return sim.App{
		New: func(c *mpi.Comm) sim.Solver {
			s := NewEarthSolver(c, opts)
			s.Source = src
			return s
		},
		Resume: func(c *mpi.Comm, base string) (sim.Solver, int64, error) {
			return Resume(c, EarthConn(), opts, PREMAt, src, base)
		},
	}
}

// AdaptToWavefront performs one dynamic adaptation cycle (sim.Cycle)
// tracking the propagating waves: refine where velocity magnitudes are
// significant, coarsen quiescent regions, transfer the 9 solution fields,
// and repartition (paper: "optionally coarsen and refine the mesh during
// the simulation to track propagating waves", Figure 8). Returns whether
// the mesh changed.
func (s *Solver) AdaptToWavefront(refineTol, coarsenTol float64) bool {
	m := s.Mesh
	// speed is the largest velocity magnitude (1-norm) over nodes [lo, hi).
	speed := func(lo, hi int) float64 {
		vmax := 0.0
		for i := lo; i < hi; i++ {
			v := math.Abs(s.Q[i*NC]) + math.Abs(s.Q[i*NC+1]) + math.Abs(s.Q[i*NC+2])
			if v > vmax {
				vmax = v
			}
		}
		return vmax
	}
	// Global velocity scale.
	vmax := mpi.AllreduceMax(s.Comm, speed(0, m.NumLocal*m.Np))
	if vmax == 0 {
		return false
	}
	return sim.Cycle{
		Forest: s.F, Met: s.Met, MaxLevel: s.Opts.MaxLevel,
		Flag: func(e int, o octant.Octant) int8 {
			rel := speed(e*m.Np, (e+1)*m.Np) / vmax
			switch {
			case rel > refineTol && o.Level < s.Opts.MaxLevel:
				return 1
			case rel < coarsenTol && o.Level > s.Opts.MinLevel:
				return -1
			}
			return 0
		},
		Mesh: m, NC: NC, Field: &s.Q, Rebuild: s.rebuild,
	}.Run()
}

// EarthSource is the earthquake-like excitation of the earth runs: a
// Ricker body force below the north pole, its peak frequency tied to the
// meshing frequency.
func EarthSource(opts Options) func(t float64, p [3]float64) [3]float64 {
	return RickerSource([3]float64{0, 0, 0.9}, [3]float64{0, 0, 1}, opts.FreqHz*500, 1, 0.05)
}

// RickerSource returns a body-force source at position src with the given
// peak frequency and amplitude, pointing in dir — the earthquake-like
// excitation of the Figure 8/9 runs.
func RickerSource(src [3]float64, dir [3]float64, freq, amp, width float64) func(t float64, p [3]float64) [3]float64 {
	t0 := 1.2 / freq
	return func(t float64, p [3]float64) [3]float64 {
		dx := p[0] - src[0]
		dy := p[1] - src[1]
		dz := p[2] - src[2]
		r2 := dx*dx + dy*dy + dz*dz
		if r2 > 9*width*width {
			return [3]float64{}
		}
		spatial := math.Exp(-r2 / (2 * width * width))
		a := math.Pi * freq * (t - t0)
		ricker := (1 - 2*a*a) * math.Exp(-a*a)
		s := amp * spatial * ricker
		return [3]float64{s * dir[0], s * dir[1], s * dir[2]}
	}
}

// Receiver records a velocity seismogram at a fixed reference location
// (tree + reference coordinates), like the broadband stations the paper's
// global runs target. The receiver samples the dG polynomial of the
// element containing the point on whichever rank owns it.
type Receiver struct {
	Tree int32
	Xi   [3]float64 // reference coordinates in [0,1]^3 within the tree

	Times   []float64
	V       [][3]float64 // recorded velocity samples
	offrank bool
}

// NewReceiver creates a receiver at reference position xi of tree t.
func NewReceiver(t int32, xi [3]float64) *Receiver {
	return &Receiver{Tree: t, Xi: xi}
}

// Sample records the velocity at the receiver for the current solution.
// Collective: the owning rank evaluates and every rank stores the sample,
// so seismograms are complete everywhere regardless of repartitioning.
func (s *Solver) Sample(rec *Receiver) {
	// Locate the max-level cell at the receiver position.
	clamp := func(v float64) int32 {
		c := int32(v * float64(octant.RootLen))
		if c < 0 {
			c = 0
		}
		if c >= octant.RootLen {
			c = octant.RootLen - 1
		}
		return c
	}
	cell := octant.Octant{
		X: clamp(rec.Xi[0]), Y: clamp(rec.Xi[1]), Z: clamp(rec.Xi[2]),
		Level: octant.MaxLevel, Tree: rec.Tree,
	}
	var local [3]float64
	found := 0.0
	if li := s.F.FindLeaf(cell); li >= 0 {
		o := s.F.Local[li]
		h := float64(o.Len()) / float64(octant.RootLen)
		// Reference coordinates within the element in [-1, 1].
		var xi [3]float64
		oc := [3]int32{o.X, o.Y, o.Z}
		for a := 0; a < 3; a++ {
			frac := (rec.Xi[a] - float64(oc[a])/float64(octant.RootLen)) / h
			xi[a] = 2*frac - 1
		}
		vals := s.evalAt(li, xi)
		local = vals
		found = 1
	}
	// Combine: exactly one rank owns the containing leaf.
	sum := [3]float64{
		mpi.AllreduceSumFloat(s.Comm, local[0]),
		mpi.AllreduceSumFloat(s.Comm, local[1]),
		mpi.AllreduceSumFloat(s.Comm, local[2]),
	}
	n := mpi.AllreduceSumFloat(s.Comm, found)
	if n < 0.5 {
		rec.offrank = true
		return
	}
	rec.Times = append(rec.Times, s.Time)
	rec.V = append(rec.V, [3]float64{sum[0] / n, sum[1] / n, sum[2] / n})
}

// evalAt evaluates the velocity polynomial of local element li at
// reference point xi in [-1,1]^3 by tensor Lagrange interpolation.
func (s *Solver) evalAt(li int, xi [3]float64) [3]float64 {
	m := s.Mesh
	lx := m.L.InterpMatrix([]float64{xi[0]})[0]
	ly := m.L.InterpMatrix([]float64{xi[1]})[0]
	lz := m.L.InterpMatrix([]float64{xi[2]})[0]
	np1 := m.Np1
	var out [3]float64
	for k := 0; k < np1; k++ {
		for j := 0; j < np1; j++ {
			w2 := ly[j] * lz[k]
			for i := 0; i < np1; i++ {
				w := lx[i] * w2
				n := li*m.Np + i + np1*(j+np1*k)
				out[0] += w * s.Q[n*NC+0]
				out[1] += w * s.Q[n*NC+1]
				out[2] += w * s.Q[n*NC+2]
			}
		}
	}
	return out
}
