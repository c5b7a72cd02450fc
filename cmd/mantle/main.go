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
	"os"
	"runtime/pprof"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/rhea"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	ranks := flag.String("ranks", "1,2,4", "comma-separated rank counts")
	maxLevel := flag.Int("max-level", 4, "finest refinement level")
	picard := flag.Int("picard", 2, "Picard iterations per adaptation cycle")
	solAdapt := flag.Int("sol-adapt", 2, "solution-adaptive refinement passes (paper: 5)")
	tracePath := flag.String("trace", "", "write the last run's Chrome trace-event JSON here")
	profilePath := flag.String("profile", "", "write a CPU profile (pprof) of all runs here")
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

	if *profilePath != "" {
		pf, err := os.Create(*profilePath)
		if err != nil {
			log.Fatalf("profile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatalf("profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}

	opts := rhea.DefaultOptions()
	opts.MaxLevel = int8(*maxLevel)
	opts.Picard = *picard
	opts.SolAdapt = *solAdapt

	fmt.Println("Figure 7: runtime percentages for adaptive global mantle flow")
	fmt.Printf("%8s | %8s %8s %8s | %10s %12s %8s %10s\n",
		"ranks", "solve%", "V-cycle%", "AMR%", "elements", "unknowns", "minres", "eta-ratio")
	var lastTracer *trace.Tracer
	for _, p := range rankList {
		var tr *trace.Tracer
		if *tracePath != "" {
			tr = trace.New(p)
			lastTracer = tr
		}
		world, runTr := tel.BeginRun(p, tr)
		row := experiments.RunFig7Obs(p, opts,
			experiments.Obs{Tracer: runTr, World: world, OnRank: tel.OnRank, Workers: tel.Workers()})
		r := row.Report
		fmt.Printf("%8d | %8.2f %8.2f %8.2f | %10d %12d %8d %10.1e\n",
			row.Ranks, r.SolvePct, r.VcyclePct, r.AMRPct,
			r.Elements, r.Unknowns, r.MinresIters,
			r.FinalEtaRange[1]/r.FinalEtaRange[0])
	}
	fmt.Println()
	fmt.Println("(paper, 13.8K-55.1K cores: solve 33.6->16.3%, V-cycle 66.2->83.4%, AMR 0.07-0.12%)")

	if lastTracer != nil {
		fmt.Println()
		fmt.Println("Trace report of the last run (solve span, imbalance, recv-wait):")
		lastTracer.WriteReport(os.Stdout)
		if err := lastTracer.WriteChromeTraceFile(*tracePath); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *tracePath)
	}
}
