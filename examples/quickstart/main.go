// Quickstart: the full life cycle of a distributed forest of octrees in a
// few dozen lines — the paper's §II.C algorithm suite end to end.
//
// It creates the six-octree rotated forest of Figure 1, refines it near a
// moving front, enforces the 2:1 balance (including across the rotated
// inter-tree faces and the five-tree macro-edge), load-balances by
// splitting the space-filling curve into equal segments (Figure 2), builds
// the ghost layer, numbers the continuous trilinear unknowns with hanging
// constraints (§II.E), and writes the partition-colored mesh to VTK.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/vtk"
)

func main() {
	const ranks = 4
	conn := connectivity.SixRotCubes()

	mpi.Run(ranks, func(c *mpi.Comm) {
		// New: an equi-partitioned uniform forest at level 1.
		f := core.New(c, conn, 1)

		// Refine: subdivide octants whose centers lie near a spherical
		// front through the domain.
		geom := conn.Geometry()
		f.Refine(true, 4, func(o octant.Octant) bool {
			if o.Level >= 4 {
				return false
			}
			p := connectivity.OctantCenter(geom, o)
			r := math.Sqrt(p[0]*p[0] + p[1]*p[1] + (p[2]-1)*(p[2]-1))
			return math.Abs(r-1.8) < 0.4
		})

		// Balance: at most 2:1 size relations between neighbours, across
		// faces, edges, and corners, including the inter-tree connections
		// with rotated coordinate systems.
		f.Balance(core.BalanceFull)

		// Partition: equal (+-1) octant counts per rank along the curve.
		moved := f.Partition()

		// Ghost: one layer of remote octants around the local segment.
		g := f.Ghost()

		// Nodes: globally unique trilinear unknowns with hanging-node
		// constraints, canonicalized across tree boundaries.
		nd := f.Nodes(g)

		if err := f.Validate(); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			fmt.Printf("forest:    %d octants across %d trees on %d ranks\n",
				f.NumGlobal(), conn.NumTrees(), c.Size())
			fmt.Printf("partition: %d octants moved to balance the load\n", moved)
			fmt.Printf("ghosts:    %d remote octants visible on rank 0\n", g.NumGhosts())
			fmt.Printf("nodes:     %d globally unique trilinear unknowns\n", nd.NumGlobal)
		}

		// Count hanging element corners on this rank.
		hanging := 0
		for _, v := range nd.ElementNodes {
			if v < 0 {
				hanging++
			}
		}
		total := mpi.AllreduceSum(c, int64(hanging))
		if c.Rank() == 0 {
			fmt.Printf("hanging:   %d element corners interpolate coarse anchors\n", total)
		}

		if err := vtk.WriteGathered("quickstart.vtk", f); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			fmt.Println("wrote quickstart.vtk (color by 'mpirank' to see the curve segments)")
		}
	})
}
