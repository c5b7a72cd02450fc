// High-order continuous unknowns: the degree-N globally unique node
// numbering (Forest.LNodes, the routine Forest.Nodes runs at degree 1) on
// the 24-octree spherical shell, whose trees carry mutually rotated
// coordinate systems. A smooth function is sampled
// once per global node, every element reads it back through its own local
// numbering, and the maximum mismatch across inter-tree faces demonstrates
// that the orientation-aware canonicalization identifies exactly the right
// unknowns — the §II.E machinery at arbitrary order.
//
//	go run ./examples/highorder
package main

import (
	"fmt"
	"math"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
)

func main() {
	const (
		ranks  = 4
		degree = 5
	)
	conn := connectivity.Shell(0.55, 1.0)
	geom := conn.Geometry()

	f := func(p [3]float64) float64 {
		return math.Sin(3*p[0]) * math.Cos(2*p[1]) * math.Exp(p[2])
	}

	mpi.Run(ranks, func(c *mpi.Comm) {
		forest := core.New(c, conn, 1)
		forest.Partition()
		g := forest.Ghost()
		ln := forest.LNodes(g, degree)

		if c.Rank() == 0 {
			fmt.Printf("shell mesh: %d elements, degree %d -> %d continuous unknowns\n",
				forest.NumGlobal(), degree, ln.NumGlobal)
		}

		// One value per global node, set through the canonical key.
		scale := float64(int32(degree)) * float64(octant.RootLen)
		vals := make([]float64, len(ln.Keys))
		for i, k := range ln.Keys {
			p := geom.X(k.Tree, [3]float64{float64(k.X) / scale, float64(k.Y) / scale, float64(k.Z) / scale})
			vals[i] = f(p)
		}

		// Every element evaluates its nodes through its OWN coordinates and
		// compares with the shared unknown: mismatches would reveal broken
		// inter-tree orientation handling.
		np1 := degree + 1
		worst := 0.0
		for e, o := range forest.Local {
			h := o.Len()
			idx := e * np1 * np1 * np1
			for k := 0; k < np1; k++ {
				for j := 0; j < np1; j++ {
					for i := 0; i < np1; i++ {
						ni := ln.ElementNodes[idx]
						idx++
						xi := [3]float64{
							(float64(int32(degree)*o.X) + float64(int32(i)*h)) / scale,
							(float64(int32(degree)*o.Y) + float64(int32(j)*h)) / scale,
							(float64(int32(degree)*o.Z) + float64(int32(k)*h)) / scale,
						}
						p := geom.X(o.Tree, xi)
						if d := math.Abs(vals[ni] - f(p)); d > worst {
							worst = d
						}
					}
				}
			}
		}
		worst = mpi.AllreduceMax(c, worst)

		// Count the sharing structure: total element-node references vs
		// distinct unknowns (the savings continuity brings).
		refs := mpi.AllreduceSum(c, int64(len(ln.ElementNodes)))

		if c.Rank() == 0 {
			fmt.Printf("continuity check: max |shared - local| = %.3e (exact up to roundoff)\n", worst)
			fmt.Printf("element-node references: %d, distinct unknowns: %d (%.2fx shared)\n",
				refs, ln.NumGlobal, float64(refs)/float64(ln.NumGlobal))
		}
	})
}
