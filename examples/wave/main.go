// Global seismic wave propagation: the paper's §IV.B dGea application.
// The solid earth (7-octree ball) is meshed adaptively to the local
// seismic wavelength of the PREM model (Figure 8, left), an earthquake-like
// Ricker source excites elastic waves near the surface, and the mesh
// dynamically coarsens and refines to track the propagating wavefronts
// (Figure 8, middle/right).
//
//	go run ./examples/wave
package main

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/seismic"
	"repro/internal/vtk"
)

func main() {
	const ranks = 2
	opts := seismic.DefaultOptions()
	opts.Degree = 3
	opts.MaxLevel = 4
	opts.FreqHz = 0.0015

	mpi.Run(ranks, func(c *mpi.Comm) {
		s := seismic.NewEarthSolver(c, opts)
		if c.Rank() == 0 {
			fmt.Printf("wavelength-adapted mesh: %d elements, %d unknowns\n",
				s.F.NumGlobal(), s.F.NumGlobal()*int64(s.Mesh.Np)*seismic.NC)
		}
		writeSnapshot(s, "wave_mesh.vtk")

		// Earthquake: an initial displacement-rate pulse at 300 km depth
		// (time units: the mesh is the unit ball, speeds are km/s, so one
		// time unit is R_earth/(1 km/s); a Ricker source at the meshing
		// frequency peaks after ~1000 steps, so for a short demo we start
		// from the pulse the wavelet would have injected).
		depth := 1 - 300/seismic.EarthRadiusKm
		m := s.Mesh
		for i := 0; i < m.NumLocal*m.Np; i++ {
			dx := m.X[0][i]
			dy := m.X[1][i]
			dz := m.X[2][i] - depth
			r2 := dx*dx + dy*dy + dz*dz
			s.Q[i*seismic.NC+2] = 5 * math.Exp(-r2/(2*0.04*0.04))
		}

		// One surface station right above the source: tree 5 is the cap
		// on the +z side of the centre cube, and its reference point
		// (1/2, 1/2, 1) is the north pole.
		station := seismic.NewReceiver(5, [3]float64{0.5, 0.5, 1})
		s.Sample(station)

		dt := s.DT()
		steps := 24
		for i := 1; i <= steps; i++ {
			s.Step(dt)
			s.Sample(station)
			if i%8 == 0 {
				changed := s.AdaptToWavefront(0.05, 0.005)
				energy := s.Energy() // collective: all ranks participate
				if c.Rank() == 0 {
					fmt.Printf("step %3d  t=%.4f  elements=%d  adapted=%v  energy=%.3e\n",
						i, s.Time, s.F.NumGlobal(), changed, energy)
				}
				if changed {
					dt = s.DT()
				}
			}
		}
		writeSnapshot(s, "wave_t1.vtk")
		var peak, tPeak float64
		for i, v := range station.V {
			if a := math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2]); a > peak {
				peak, tPeak = a, station.Times[i]
			}
		}
		if c.Rank() == 0 {
			fmt.Printf("surface station above the source: peak |v| = %.3e at t=%.4f (%d samples)\n",
				peak, tPeak, len(station.V))
			fmt.Println("wrote wave_mesh.vtk / wave_t1.vtk (color by 'vmag' and 'level')")
		}
	})
}

func writeSnapshot(s *seismic.Solver, path string) {
	vals := make([]float64, s.Mesh.NumLocal)
	vp := make([]float64, s.Mesh.NumLocal)
	for e := 0; e < s.Mesh.NumLocal; e++ {
		var vmax float64
		for n := 0; n < s.Mesh.Np; n++ {
			i := (e*s.Mesh.Np + n) * seismic.NC
			v := math.Sqrt(s.Q[i]*s.Q[i] + s.Q[i+1]*s.Q[i+1] + s.Q[i+2]*s.Q[i+2])
			if v > vmax {
				vmax = v
			}
		}
		vals[e] = vmax
		// Wave speed at the element's first node (mesh-vs-PREM view of Fig 8).
		i := e * s.Mesh.Np
		r := math.Sqrt(s.Mesh.X[0][i]*s.Mesh.X[0][i]+s.Mesh.X[1][i]*s.Mesh.X[1][i]+s.Mesh.X[2][i]*s.Mesh.X[2][i]) * seismic.EarthRadiusKm
		_, pv, _ := seismic.PREM(r)
		vp[e] = pv
	}
	if err := vtk.WriteGathered(path, s.F,
		vtk.CellField{Name: "vmag", Values: vals},
		vtk.CellField{Name: "vp_km_s", Values: vp},
	); err != nil {
		panic(err)
	}
}
