// Command mantle reproduces the Figure 7 table of the paper: the runtime
// percentage breakdown — solver operations vs AMG V-cycle vs AMR — for the
// adaptive solution of the global mantle flow problem with nonlinear
// rheology and plate-boundary weak zones.
//
//	go run ./cmd/mantle -ranks 1,2,4 -trace /tmp/t.json
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/rhea"
	"repro/internal/telemetry"
)

func main() {
	ranks := flag.String("ranks", "1,2,4", "comma-separated rank counts")
	maxLevel := flag.Int("max-level", 4, "finest refinement level")
	picard := flag.Int("picard", 2, "Picard iterations per adaptation cycle")
	solAdapt := flag.Int("sol-adapt", 2, "solution-adaptive refinement passes (paper: 5)")
	tel := telemetry.NewDriver("mantle")
	flag.Parse()
	rankList, err := cli.ParseRanks(*ranks)
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.Start(); err != nil {
		log.Fatal(err)
	}
	defer tel.Finish()

	opts := rhea.DefaultOptions()
	opts.MaxLevel = int8(*maxLevel)
	opts.Picard = *picard
	opts.SolAdapt = *solAdapt

	fmt.Println("Figure 7: runtime percentages for adaptive global mantle flow")
	fmt.Printf("%8s | %8s %8s %8s | %10s %12s %8s %10s\n",
		"ranks", "solve%", "V-cycle%", "AMR%", "elements", "unknowns", "minres", "eta-ratio")
	for _, p := range rankList {
		world, tr := tel.BeginRun(p, nil)
		row := experiments.RunFig7Obs(p, opts,
			experiments.Obs{Tracer: tr, World: world, OnRank: tel.OnRank, Workers: tel.Workers()})
		r := row.Report
		fmt.Printf("%8d | %8.2f %8.2f %8.2f | %10d %12d %8d %10.1e\n",
			row.Ranks, r.SolvePct, r.VcyclePct, r.AMRPct,
			r.Elements, r.Unknowns, r.MinresIters,
			r.FinalEtaRange[1]/r.FinalEtaRange[0])
	}
	fmt.Println()
	fmt.Println("(paper, 13.8K-55.1K cores: solve 33.6->16.3%, V-cycle 66.2->83.4%, AMR 0.07-0.12%)")
}
