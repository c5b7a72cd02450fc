// Command advect reproduces Figure 5 of the paper: weak scaling of the
// dynamically adapted dG advection solve on the 24-octree spherical shell.
// Four spherical fronts advect under solid-body rotation; the mesh is
// coarsened, refined, 2:1-balanced, and repartitioned every -adapt-every
// steps with the solution transferred between meshes.
//
//	go run ./cmd/advect -ranks 1,4 -steps 16 -adapt-every 4
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/cmd/internal/cli"
	"repro/cmd/internal/robust"
	"repro/internal/advect"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	ranks := flag.String("ranks", "1,4", "comma-separated rank counts")
	steps := flag.Int("steps", 16, "time steps")
	adaptEvery := flag.Int("adapt-every", 4, "adapt+repartition interval (paper: 32)")
	degree := flag.Int("degree", 3, "polynomial degree (paper: 3, tricubic)")
	level := flag.Int("level", 2, "initial refinement level")
	maxLevel := flag.Int("max-level", 4, "finest refinement level")
	tel := telemetry.NewDriver("advect")
	rb := robust.Register()
	flag.Parse()
	rankList, err := cli.ParseRanks(*ranks)
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.Start(); err != nil {
		log.Fatal(err)
	}
	defer tel.Finish()

	opts := advect.DefaultOptions()
	opts.Degree = *degree
	opts.Level = int8(*level)
	opts.MaxLevel = int8(*maxLevel)

	if rb.Base != "" {
		run := sim.Run{App: advect.ShellApp(opts), Steps: *steps, AdaptEvery: *adaptEvery}
		if err := rb.Run(rankList[0], tel, run); err != nil {
			log.Fatalf("robust run: %v", err)
		}
		return
	}

	fmt.Println("Figure 5: weak scaling of dynamically adapted dG advection on the shell")
	fmt.Printf("%8s %10s %12s %10s %10s %8s %12s %10s %15s\n",
		"ranks", "elements", "unknowns", "amr(s)", "integ(s)", "amr%", "s/step/elem", "shipped%", "B/elem live/rss")
	var base float64
	for _, p := range rankList {
		world, tr := tel.BeginRun(p, nil)
		row := experiments.RunFig5(p, opts, *steps, *adaptEvery,
			experiments.Obs{Tracer: tr, World: world, OnRank: tel.OnRank, Workers: tel.Workers()})
		fmt.Printf("%8d %10d %12d %10.3f %10.3f %8.2f %12.3e %10.1f %15s\n",
			row.Ranks, row.Elements, row.Unknowns, row.AMRSec, row.IntegSec,
			row.AMRPercent, row.NormPerStep, row.ShippedPct,
			fmt.Sprintf("%.0f/%.0f", row.LivePerElem, row.PeakRSSPerElem))
		if base == 0 {
			base = row.NormPerStep
		} else if row.NormPerStep > 0 {
			fmt.Printf("%8s end-to-end parallel efficiency vs base: %.1f%%\n", "",
				100*base/row.NormPerStep)
		}
	}
}
