// Mantle convection: a small version of the paper's §IV.A Rhea runs.
// The 24-octree spherical-shell mantle is refined around synthetic
// plate-boundary weak zones (viscosity lowered by five orders of
// magnitude) and thermal boundary layers, then the nonlinear Stokes
// equations are solved with Picard iterations, MINRES, and the AMG
// V-cycle preconditioner, interleaved with solution-adaptive refinement
// on strain rates and viscosity gradients (Figure 6).
//
//	go run ./examples/mantle
package main

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/rhea"
	"repro/internal/vtk"
)

func main() {
	const ranks = 2
	opts := rhea.DefaultOptions()
	opts.MaxLevel = 4
	opts.SolAdapt = 2
	opts.Picard = 2

	mpi.Run(ranks, func(c *mpi.Comm) {
		m := rhea.New(c, opts)
		if c.Rank() == 0 {
			fmt.Printf("data-adapted mesh: %d elements\n", m.F.NumGlobal())
		}
		rep := m.Run()

		// Per-element log viscosity and speed for visualization.
		eta := make([]float64, m.F.NumLocal())
		speed := make([]float64, m.F.NumLocal())
		for e := range m.F.Local {
			eta[e] = math.Log10(m.Eta[e])
			v := m.Op.VelocityAt(e, m.X)
			var s float64
			for c := 0; c < 8; c++ {
				s += math.Sqrt(v[c][0]*v[c][0] + v[c][1]*v[c][1] + v[c][2]*v[c][2])
			}
			speed[e] = s / 8
		}
		if err := vtk.WriteGathered("mantle.vtk", m.F,
			vtk.CellField{Name: "log10_viscosity", Values: eta},
			vtk.CellField{Name: "speed", Values: speed},
		); err != nil {
			panic(err)
		}

		if c.Rank() == 0 {
			fmt.Printf("final mesh:  %d elements, %d unknowns, %d refinement levels\n",
				rep.Elements, rep.Unknowns, opts.MaxLevel-opts.Level+1)
			fmt.Printf("viscosity contrast: %.1e\n", rep.FinalEtaRange[1]/rep.FinalEtaRange[0])
			fmt.Printf("Picard iterations: %d (MINRES total %d)\n", rep.PicardIters, rep.MinresIters)
			fmt.Printf("runtime split: solve %.1f%%  V-cycle %.1f%%  AMR %.1f%%\n",
				rep.SolvePct, rep.VcyclePct, rep.AMRPct)
			fmt.Println("wrote mantle.vtk (color by 'log10_viscosity' to see the weak zones)")
		}

		// The coupled loop of eq. (2c) on the final mesh: explicit SUPG
		// energy steps in the current flow, with one Stokes re-solve on
		// the evolved temperature halfway.
		const steps = 4
		T := m.ThermalEvolve(steps, steps/2, 1e-3)
		lo, hi, vmax := math.Inf(1), math.Inf(-1), 0.0
		for i, t := range T {
			lo, hi = min(lo, t), max(hi, t)
			vmax = max(vmax, math.Abs(m.X[4*i]), math.Abs(m.X[4*i+1]), math.Abs(m.X[4*i+2]))
		}
		lo, hi, vmax = -mpi.AllreduceMax(c, -lo), mpi.AllreduceMax(c, hi), mpi.AllreduceMax(c, vmax)
		if c.Rank() == 0 {
			fmt.Printf("thermal evolution: %d SUPG energy steps, 1 Stokes re-solve; temperature in [%.3f, %.3f], max |u| %.3e\n",
				steps, lo, hi, vmax)
		}
	})
}
