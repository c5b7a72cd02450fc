// Command forest builds, adapts, balances, and partitions forest-of-octrees
// meshes on the built-in connectivities and reports statistics; with -vtk
// it writes the partition-colored mesh for visualization (Figure 1).
//
//	go run ./cmd/forest -config six -ranks 4 -refine fractal -level 2 -vtk six.vtk
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/telemetry"
	"repro/internal/vtk"
)

func buildConn(name string) *connectivity.Conn {
	switch name {
	case "unitcube":
		return connectivity.UnitCube()
	case "brick":
		return connectivity.Brick(2, 2, 2, false, false, false)
	case "torus":
		return connectivity.Brick(2, 2, 2, true, true, true)
	case "six", "rotcubes":
		return connectivity.SixRotCubes()
	case "shell":
		return connectivity.Shell(0.55, 1.0)
	case "ball":
		return connectivity.Ball(0.35, 1.0)
	}
	log.Fatalf("unknown -config %q (unitcube, brick, torus, six, shell, ball)", name)
	return nil
}

func main() {
	config := flag.String("config", "six", "connectivity: unitcube, brick, torus, six, shell, ball")
	ranks := flag.Int("ranks", 4, "number of ranks (goroutines)")
	level := flag.Int("level", 2, "initial uniform level")
	refine := flag.String("refine", "fractal", "refinement: none, fractal, corner")
	extra := flag.Int("extra", 2, "extra levels for the refinement pattern")
	vtkPath := flag.String("vtk", "", "write the gathered mesh to this VTK file")
	savePath := flag.String("save", "", "checkpoint the forest to this file")
	loadPath := flag.String("load", "", "restore the forest from a checkpoint instead of building it")
	tel := telemetry.NewDriver("forest")
	flag.Parse()
	if err := tel.Start(); err != nil {
		log.Fatal(err)
	}
	defer tel.Finish()

	world, tr := tel.BeginRun(*ranks, nil)

	conn := buildConn(*config)
	mpi.RunOpt(*ranks, mpi.RunOptions{Tracer: tr, Metrics: world, Workers: tel.Workers()}, func(c *mpi.Comm) {
		var f *core.Forest
		if *loadPath != "" {
			var err error
			f, err = core.Load(c, conn, *loadPath)
			if err != nil {
				log.Fatalf("load: %v", err)
			}
		} else {
			f = core.New(c, conn, int8(*level))
			maxl := int8(*level + *extra)
			switch *refine {
			case "none":
			case "fractal":
				f.Refine(true, maxl, experiments.FractalRefiner(maxl))
			case "corner":
				f.Refine(true, maxl, func(o octant.Octant) bool {
					return o.ChildID() == 0 && o.Level < maxl
				})
			default:
				log.Fatalf("unknown -refine %q", *refine)
			}
			f.Balance(core.BalanceFull)
			f.Partition()
		}
		g := f.Ghost()
		nd := f.Nodes(g)
		if err := f.Validate(); err != nil {
			log.Fatalf("invariants violated: %v", err)
		}

		stats := c.Stats()
		bytesSent := mpi.AllreduceSum(c, stats.BytesSent)
		bytesRecvd := mpi.AllreduceSum(c, stats.BytesRecvd)
		maxWait := mpi.AllreduceMax(c, stats.RecvWait.Seconds())
		checksum := f.Checksum()
		if c.Rank() == 0 {
			fmt.Printf("connectivity %q: %d trees\n", *config, conn.NumTrees())
			fmt.Printf("forest: %d octants on %d ranks (%.0f per rank)\n",
				f.NumGlobal(), c.Size(), float64(f.NumGlobal())/float64(c.Size()))
			levels := map[int8]int{}
			for _, o := range f.Local {
				levels[o.Level]++
			}
			fmt.Printf("rank 0: %d local octants, %d ghosts, levels %v\n",
				f.NumLocal(), g.NumGhosts(), levels)
			fmt.Printf("nodes: %d global trilinear unknowns (%d owned by rank 0)\n",
				nd.NumGlobal, nd.NumOwned)
			fmt.Printf("communication: %.2f MB sent, %.2f MB received, max recv-wait %.3fs\n",
				float64(bytesSent)/math.Pow(2, 20), float64(bytesRecvd)/math.Pow(2, 20), maxWait)
			fmt.Printf("checksum: %016x\n", checksum)
		}
		if *savePath != "" {
			if err := f.Save(*savePath); err != nil {
				log.Fatalf("save: %v", err)
			}
			if c.Rank() == 0 {
				fmt.Printf("checkpointed to %s\n", *savePath)
			}
		}
		if *vtkPath != "" {
			if err := vtk.WriteGathered(*vtkPath, f); err != nil {
				log.Fatalf("vtk: %v", err)
			}
			if c.Rank() == 0 {
				fmt.Printf("wrote %s\n", *vtkPath)
			}
		}
	})
}
