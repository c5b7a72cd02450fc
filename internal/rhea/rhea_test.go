package rhea

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

func smallOpts() Options {
	o := DefaultOptions()
	o.Level = 1
	o.MaxLevel = 3
	o.DataAdapt = 1
	o.SolAdapt = 1
	o.Picard = 1
	o.MinresTol = 1e-5
	o.MinresIter = 200
	return o
}

func TestTemperatureBounds(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		m := New(c, smallOpts())
		for i := 0; i < 1000; i++ {
			th := float64(i) * 0.0097
			r := rInner + (rOuter-rInner)*math.Mod(float64(i)*0.013, 1)
			p := [3]float64{r * math.Cos(th), r * math.Sin(th), 0.1 * math.Sin(3*th) * r}
			// normalize onto the shell radius
			n := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
			for a := range p {
				p[a] *= r / n
			}
			tv := m.Temperature(p)
			if tv < 0 || tv > 1 || math.IsNaN(tv) {
				t.Fatalf("temperature %v out of [0,1] at %v", tv, p)
			}
		}
	})
}

func TestViscosityContrast(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		m := New(c, smallOpts())
		// Weak zone viscosity must be orders of magnitude below ambient.
		weak := m.Viscosity(0.5, 0.1, [3]float64{0.99, 0, 0})     // lon 0 weak zone at surface
		strong := m.Viscosity(0.5, 0.1, [3]float64{0, 0.7, 0.68}) // off-zone
		if weak >= strong {
			t.Fatalf("weak zone not weak: %v vs %v", weak, strong)
		}
		if weak > m.Opts.EtaMin*10 {
			t.Fatalf("weak zone viscosity %v not clamped toward EtaMin", weak)
		}
		// Yielding: very high strain rate reduces viscosity.
		vLow := m.Viscosity(0.2, 0.01, [3]float64{0, 0.7, 0})
		vHigh := m.Viscosity(0.2, 1e6, [3]float64{0, 0.7, 0})
		if vHigh >= vLow {
			t.Fatalf("yielding did not reduce viscosity: %v vs %v", vHigh, vLow)
		}
	})
}

func TestDataAdaptRefinesWeakZones(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		m := New(c, smallOpts())
		// The mesh must be finer than uniform level 1 (weak zones + thermal
		// boundary layers got refined).
		if m.F.NumGlobal() <= 24*8 {
			t.Fatalf("data-adaptive refinement did nothing: %d elements", m.F.NumGlobal())
		}
		// Multiple refinement levels present.
		levels := map[int8]bool{}
		for _, o := range m.F.Local {
			levels[o.Level] = true
		}
		n := int64(len(levels))
		total := mpi.AllreduceSum(c, n)
		if total < 2 {
			t.Fatal("expected a multi-level adapted mesh")
		}
	})
}

func TestRunProducesFlowAndReport(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		m := New(c, smallOpts())
		rep := m.Run()
		if rep.PicardIters < 2 {
			t.Fatalf("picard iters = %d", rep.PicardIters)
		}
		if rep.MinresIters == 0 {
			t.Fatal("no MINRES iterations recorded")
		}
		if rep.Elements == 0 || rep.Unknowns == 0 {
			t.Fatalf("empty problem: %+v", rep)
		}
		// Flow must be nontrivial (buoyancy drives convection).
		var vmax float64
		for i := 0; i < m.Op.NN; i++ {
			for a := 0; a < 3; a++ {
				if v := math.Abs(m.X[4*i+a]); v > vmax {
					vmax = v
				}
			}
		}
		vmax = mpi.AllreduceMax(c, vmax)
		if vmax <= 0 || math.IsNaN(vmax) {
			t.Fatalf("no flow developed: vmax = %v", vmax)
		}
		// Percentages are a partition of ~100.
		sum := rep.SolvePct + rep.VcyclePct + rep.AMRPct
		if sum < 99 || sum > 101 {
			t.Fatalf("percentages do not sum to 100: %v (%+v)", sum, rep)
		}
		// Viscosity contrast spans the weak zones.
		if rep.FinalEtaRange[0] >= rep.FinalEtaRange[1] {
			t.Fatalf("degenerate viscosity range %v", rep.FinalEtaRange)
		}
	})
}

// TestReportReadsSpanTotals: on a run with a caller's tracer, Report's
// seconds are the tracer's aggregated span sums (MINRES less its V-cycles;
// V-cycles plus AMG setup; mesh builds plus adapt cycles), and together
// they fit in the ranks' summed wall time of Run. A span nested in another
// of its own name would count its interval twice and break the second.
func TestReportReadsSpanTotals(t *testing.T) {
	const p = 2
	tr := trace.New(p)
	var rep Report
	var wall time.Duration
	mpi.RunOpt(p, mpi.RunOptions{Tracer: tr}, func(c *mpi.Comm) {
		m := New(c, smallOpts())
		t0 := time.Now()
		r := m.Run()
		w := mpi.AllreduceSum(c, int64(time.Since(t0)))
		if c.Rank() == 0 {
			rep, wall = r, time.Duration(w)
		}
	})
	sum := func(names ...string) float64 {
		var s time.Duration
		for _, name := range names {
			st, _ := tr.Phase(name)
			s += st.Total
		}
		return s.Seconds()
	}
	minres, vcycle := sum("minres"), sum("vcycle")
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"solve", rep.SolveSec, minres - vcycle},
		{"vcycle", rep.VcycleSec, vcycle + sum("amg_setup")},
		{"amr", rep.AMRSec, sum("amr", "adapt")},
	} {
		if c.want <= 0 || math.Abs(c.got-c.want) > 1e-9*c.want {
			t.Errorf("%s: Report %v s, span totals %v s", c.name, c.got, c.want)
		}
	}
	if got := rep.SolveSec + rep.VcycleSec + rep.AMRSec; got > wall.Seconds() {
		t.Errorf("Report sums to %v s, more than the ranks' %v s in Run", got, wall.Seconds())
	}
}

func TestThermalEvolveCoupledLoop(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		o := smallOpts()
		o.MaxLevel = 2
		o.MinresIter = 80
		o.MinresTol = 1e-4
		m := New(c, o)
		T := m.ThermalEvolve(6, 3, 1e-3)
		if len(T) != m.Op.NN {
			t.Fatalf("temperature field length %d, want %d", len(T), m.Op.NN)
		}
		// Temperature stays physical and respects the boundary pins.
		for i, v := range T {
			if math.IsNaN(v) || v < -0.1 || v > 1.2 {
				t.Fatalf("temperature out of range at node %d: %v", i, v)
			}
			p := m.Op.NodePos(i)
			r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
			if r < 0.55*1.001 && math.Abs(v-1) > 1e-9 {
				t.Fatalf("CMB temperature not pinned: %v", v)
			}
			if r > 0.999 && math.Abs(v) > 1e-9 {
				t.Fatalf("surface temperature not pinned: %v", v)
			}
		}
		// The coupled solve produced flow.
		var vmax float64
		for i := 0; i < m.Op.NN; i++ {
			for a := 0; a < 3; a++ {
				if w := math.Abs(m.X[4*i+a]); w > vmax {
					vmax = w
				}
			}
		}
		if vmax = mpi.AllreduceMax(c, vmax); vmax <= 0 {
			t.Fatal("no flow after thermal evolution")
		}
	})
}
