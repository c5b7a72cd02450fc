// Package rhea reproduces the paper's global mantle convection application
// (§IV.A): variable-viscosity Stokes flow in the 24-octree spherical-shell
// mantle, driven by a present-day synthetic temperature model, with a
// nonlinear rheology combining temperature- and strain-rate-dependent
// viscosity, plastic yielding, and narrow plate-boundary weak zones whose
// viscosity is lowered by five orders of magnitude. Adaptivity proceeds as
// in the paper: data-adaptive refinement on the temperature field and weak
// zones first, then dynamic solution-adaptive refinement interleaved with
// the Picard (lagged-viscosity) iterations of the nonlinear Stokes solve.
package rhea

import (
	"math"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/sim"
	"repro/internal/stokes"
)

// Options configure a mantle model run.
type Options struct {
	Level      int8 // initial uniform level
	MaxLevel   int8 // finest level (the paper reaches 8 levels / ~1 km)
	DataAdapt  int  // number of data-adaptive refinement passes (paper: 5)
	SolAdapt   int  // number of solution-adaptive refinement passes (paper: 5-7)
	Picard     int  // Picard iterations between adaptations (paper: 2-8)
	Rayleigh   float64
	EtaMin     float64
	EtaMax     float64
	WeakFactor float64 // viscosity reduction in plate-boundary zones (paper: 1e-5)
	WeakWidth  float64 // angular half-width of the weak zones
	YieldTau   float64 // yield stress for plastic failure
	MinresTol  float64
	MinresIter int
}

// DefaultOptions returns a laptop-scale configuration of the paper's setup.
func DefaultOptions() Options {
	return Options{
		Level: 1, MaxLevel: 3, DataAdapt: 2, SolAdapt: 1, Picard: 2,
		Rayleigh: 1e2, EtaMin: 1e-2, EtaMax: 1e4,
		WeakFactor: 1e-5, WeakWidth: 0.08, YieldTau: 1e3,
		MinresTol: 1e-5, MinresIter: 150,
	}
}

const (
	rInner = 0.55
	rOuter = 1.0
)

// Model is one distributed mantle-convection problem instance.
type Model struct {
	Opts Options
	Comm *mpi.Comm
	Conn *connectivity.Conn
	F    *core.Forest
	Met  *metrics.Registry

	Eta []float64        // per-element viscosity of the last solve (lagged)
	X   []float64        // solution of the last solve (4 dofs per node)
	Op  *stokes.Operator // operator of the last solve; nil after adaptation
	nd  *core.Nodes
}

// New builds the model and performs the data-adaptive refinement passes on
// the temperature field and the weak zones.
func New(comm *mpi.Comm, opts Options) *Model {
	m := &Model{
		Opts: opts, Comm: comm,
		Conn: connectivity.Shell(rInner, rOuter),
		Met:  metrics.NewRegistry(),
	}
	tr := comm.Tracer()
	tr.Begin("amr")
	m.F = core.New(comm, m.Conn, opts.Level)
	m.F.Balance(core.BalanceFull)
	m.F.Partition()
	tr.End()
	for i := 0; i < opts.DataAdapt; i++ {
		m.adaptOn(m.dataIndicator)
	}
	m.rebuild()
	return m
}

// Temperature is the synthetic present-day temperature model: a conductive
// background with a cold top boundary layer (surface thermal age), a hot
// bottom boundary layer, and localized slab-like cold anomalies beneath
// the plate boundaries.
func (m *Model) Temperature(p [3]float64) float64 {
	r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
	s := (r - rInner) / (rOuter - rInner) // 0 at CMB, 1 at surface
	t := 1 - s                            // conductive profile
	// Cold surface boundary layer.
	t -= 0.35 * math.Exp(-(1-s)*(1-s)/(2*0.06*0.06))
	// Hot CMB boundary layer.
	t += 0.3 * math.Exp(-s*s/(2*0.08*0.08))
	// Cold slabs dipping under the weak zones.
	for _, lon0 := range weakLons {
		lon := math.Atan2(p[1], p[0])
		d := angDist(lon, lon0)
		t -= 0.4 * math.Exp(-d*d/(2*0.15*0.15)) * math.Exp(-(1-s)*(1-s)/(2*0.2*0.2))
	}
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// weakLons are the longitudes of the meridional plate-boundary weak zones.
var weakLons = []float64{0, 2 * math.Pi / 3, -2 * math.Pi / 3}

func angDist(a, b float64) float64 {
	d := math.Mod(a-b+3*math.Pi, 2*math.Pi) - math.Pi
	return math.Abs(d)
}

// WeakFactor returns the viscosity reduction factor of the plate-boundary
// zones: WeakFactor (1e-5) inside the narrow near-surface bands, 1 outside.
func (m *Model) WeakFactorAt(p [3]float64) float64 {
	r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
	if r < 0.9*rOuter {
		return 1
	}
	lon := math.Atan2(p[1], p[0])
	for _, lon0 := range weakLons {
		if angDist(lon, lon0) < m.Opts.WeakWidth {
			return m.Opts.WeakFactor
		}
	}
	return 1
}

// Viscosity evaluates the nonlinear rheology at a point: Arrhenius
// temperature dependence, strain-rate weakening (dislocation creep),
// plastic yielding at high strain rates, and the weak-zone factor, clamped
// to [EtaMin, EtaMax] — the constitutive law of §IV.A.
func (m *Model) Viscosity(T, eII float64, p [3]float64) float64 {
	const (
		c1 = 1.0
		c2 = 4.0
		c3 = -0.3 // (eps_II)^c3 dislocation-creep weakening
	)
	eta := c1 * math.Exp(c2*(0.5-T))
	if eII > 1e-12 {
		eta *= math.Pow(eII, c3)
		// Plastic yielding.
		if y := m.Opts.YieldTau / (2 * eII); y < eta {
			eta = y
		}
	}
	eta *= m.WeakFactorAt(p)
	if eta < m.Opts.EtaMin {
		eta = m.Opts.EtaMin
	}
	if eta > m.Opts.EtaMax {
		eta = m.Opts.EtaMax
	}
	return eta
}

// elemCenter returns the physical center of local element e.
func (m *Model) elemCenter(e int) [3]float64 {
	return connectivity.OctantCenter(m.Conn.Geometry(), m.F.Local[e])
}

// shellSide reports which shell surface p lies on, to the 0.1 % tolerance
// of the mapped node positions: -1 the core-mantle boundary, +1 the
// surface, 0 the interior.
func shellSide(p [3]float64) int {
	r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
	switch {
	case r < rInner*1.001:
		return -1
	case r > rOuter*0.999:
		return 1
	}
	return 0
}

// onShellBoundary is the Stokes operator's Dirichlet predicate: p lies on
// either shell surface.
func onShellBoundary(p [3]float64) bool { return shellSide(p) != 0 }

// rebuild refreshes the ghost layer and node numbering after mesh changes
// and drops the operator and solution of the old mesh: the next solve
// builds the one operator of the new mesh. The temperature model is
// analytic, so fields are re-sampled rather than transferred; the velocity
// restarts from zero after adaptation. Timed as AMR (the "amr" span).
func (m *Model) rebuild() {
	tr := m.Comm.Tracer()
	tr.Begin("amr")
	defer tr.End()
	m.nd = m.F.Nodes(m.F.Ghost())
	m.Op, m.X = nil, nil
}

// solve builds the Stokes operator of the current mesh and solves it. The
// temperature that sets viscosity and buoyancy is the synthetic model when
// T is nil, else the nodal field T sampled at the element corners through
// the hanging constraints; the strain rate is the last solution's on this
// mesh, zero if there is none. Collective; returns the MINRES iterations.
func (m *Model) solve(T []float64) int {
	m.Eta = make([]float64, m.F.NumLocal())
	for e := range m.F.Local {
		p := m.elemCenter(e)
		var t float64
		if T == nil {
			t = m.Temperature(p)
		} else {
			tc := m.Op.CornerScalar(e, T)
			for c := 0; c < 8; c++ {
				t += tc[c] / 8
			}
		}
		eII := 0.0
		if m.Op != nil && m.X != nil {
			eII = stokes.StrainRateII(&m.Op.Geo[e], m.Op.VelocityAt(e, m.X))
		}
		m.Eta[e] = m.Viscosity(t, eII, p)
	}
	op := stokes.NewOperator(m.F, m.nd, m.Eta, onShellBoundary)
	// Radial buoyancy Ra·T·r̂ at every element corner.
	rhs := op.BuildRHSElem(func(e int) (fc [8][3]float64) {
		var tc [8]float64
		if T != nil {
			tc = op.CornerScalar(e, T)
		}
		for c, p := range op.Geo[e] {
			if T == nil {
				tc[c] = m.Temperature(p)
			}
			r := math.Sqrt(p[0]*p[0]+p[1]*p[1]+p[2]*p[2]) + 1e-300
			f := m.Opts.Rayleigh * tc[c]
			fc[c] = [3]float64{f * p[0] / r, f * p[1] / r, f * p[2] / r}
		}
		return
	})
	x, iters, _ := op.SolveDirichletRHS(rhs,
		func([3]float64) [3]float64 { return [3]float64{} },
		m.Opts.MinresTol, m.Opts.MinresIter)
	m.Op, m.X = op, x
	return iters
}

// dataIndicator marks elements for the initial data-adaptive passes:
// refine where the temperature varies strongly or a weak zone is present.
func (m *Model) dataIndicator(e int, o octant.Octant) int8 {
	p := m.elemCenter(e)
	if m.WeakFactorAt(p) < 1 && o.Level < m.Opts.MaxLevel {
		return 1
	}
	// Temperature variation across the element.
	geo := stokes.CornerGeometry(m.Conn.Geometry(), o)
	lo, hi := math.Inf(1), math.Inf(-1)
	for c := 0; c < 8; c++ {
		t := m.Temperature(geo[c])
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	switch {
	case hi-lo > 0.12 && o.Level < m.Opts.MaxLevel:
		return 1
	case hi-lo < 0.02 && o.Level > m.Opts.Level:
		return -1
	}
	return 0
}

// solutionIndicator marks elements for the dynamic solution-adaptive
// passes: refine where the strain rate or the viscosity gradient is large
// (the paper's error indicators "involve strain rates and dynamically
// evolving viscosity gradients").
func (m *Model) solutionIndicator(e int, o octant.Octant) int8 {
	if m.Op == nil || m.X == nil {
		return 0
	}
	v := m.Op.VelocityAt(e, m.X)
	eII := stokes.StrainRateII(&m.Op.Geo[e], v)
	p := m.elemCenter(e)
	if (eII > 1.5 || m.WeakFactorAt(p) < 1) && o.Level < m.Opts.MaxLevel {
		return 1
	}
	if eII < 0.05 && o.Level > m.Opts.Level {
		return -1
	}
	return 0
}

// adaptOn performs one mark/coarsen/refine/balance/partition cycle with the
// given indicator; no field rides along (see rebuild). Collective; returns
// whether the mesh changed.
func (m *Model) adaptOn(ind func(e int, o octant.Octant) int8) bool {
	return sim.Cycle{Forest: m.F, Met: m.Met, MaxLevel: m.Opts.MaxLevel, Flag: ind}.Run()
}

// Report summarizes a run for the Figure 7 table.
type Report struct {
	SolveSec, VcycleSec, AMRSec float64
	SolvePct, VcyclePct, AMRPct float64
	PicardIters                 int
	MinresIters                 int
	Elements                    int64
	Unknowns                    int64
	FinalEtaRange               [2]float64
}

// Run executes the nonlinear solve: Picard (lagged-viscosity) iterations,
// interleaved with the solution-adaptive refinements, and returns the
// runtime split between solver operations, AMG V-cycles, and AMR — the
// decomposition reported in the paper's Figure 7.
func (m *Model) Run() Report {
	rep := Report{}
	for cycle := 0; cycle <= m.Opts.SolAdapt; cycle++ {
		for it := 0; it < m.Opts.Picard; it++ {
			rep.MinresIters += m.solve(nil)
			rep.PicardIters++
		}
		if cycle < m.Opts.SolAdapt {
			if m.adaptOn(m.solutionIndicator) {
				m.rebuild()
			}
		}
	}

	// Sum the ranks' span totals: on a host that serializes the rank
	// goroutines, summed attribution gives the faithful runtime split.
	// MINRES contains the V-cycles; the AMG setup precedes it, and AMR is
	// the mesh builds ("amr") plus the adapt cycles ("adapt"). No two of
	// these spans overlap except vcycle inside minres.
	tr := m.Comm.Tracer()
	sum := func(name string) float64 {
		return mpi.AllreduceSumFloat(m.Comm, tr.Total(name).Seconds())
	}
	vc := sum("vcycle") + sum("amg_setup")
	solveOnly := sum("minres") - sum("vcycle")
	amr := sum("amr") + sum("adapt")
	total := solveOnly + vc + amr
	rep.SolveSec, rep.VcycleSec, rep.AMRSec = solveOnly, vc, amr
	if total > 0 {
		rep.SolvePct = 100 * solveOnly / total
		rep.VcyclePct = 100 * vc / total
		rep.AMRPct = 100 * amr / total
	}
	rep.Elements = m.F.NumGlobal()
	rep.Unknowns = 4 * m.nd.NumGlobal
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range m.Eta {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	rep.FinalEtaRange = [2]float64{
		-mpi.AllreduceMax(m.Comm, -lo),
		mpi.AllreduceMax(m.Comm, hi),
	}
	return rep
}

// ThermalEvolve runs the fully coupled convection loop of equations
// (2a)-(2c) on the current mesh: explicit SUPG energy steps advect and
// diffuse a nodal temperature field with the current flow, and the
// nonlinear Stokes problem is re-solved with the evolved temperature every
// resolveEvery steps (the paper: "explicit integration of the energy
// equation decouples the temperature update from the nonlinear Stokes
// solve"). It returns the nodal temperature field. Collective.
func (m *Model) ThermalEvolve(steps, resolveEvery int, kappa float64) []float64 {
	if m.Op == nil || m.X == nil {
		m.solve(nil)
	}
	// Initialize the nodal temperature from the synthetic model.
	T := make([]float64, m.Op.NN)
	for i := range T {
		T[i] = m.Temperature(m.Op.NodePos(i))
	}
	bc := func(p [3]float64) (float64, bool) {
		switch shellSide(p) {
		case -1:
			return 1, true // hot core-mantle boundary
		case 1:
			return 0, true // cold surface
		}
		return 0, false
	}
	en := stokes.NewEnergyOp(m.Op, kappa, 0)
	for s := 1; s <= steps; s++ {
		dt := mpi.Allreduce(m.Comm, en.StableDT(m.X), func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		})
		en.Step(T, m.X, dt, bc)
		if resolveEvery > 0 && s%resolveEvery == 0 && s < steps {
			m.solve(T)
			en = stokes.NewEnergyOp(m.Op, kappa, 0)
		}
	}
	return T
}
