// Command scaling reproduces Figure 4 of the paper: weak scaling of the
// core forest-of-octrees algorithms (New, Refine, Partition, Balance,
// Ghost, Nodes) on the six-octree fractal workload. Rank counts are
// emulated by goroutines; each level increment multiplies both the octant
// count and the rank count by eight, holding octants per rank constant.
//
// Every run is traced through internal/trace, so alongside the paper's
// timing table the report shows each phase's cross-rank imbalance
// (max/avg) and the share of the phase spent blocked in receives. With
// -trace the last run's full span timeline is written as Chrome
// trace-event JSON (one track per rank; open in Perfetto).
//
//	go run ./cmd/scaling -base-level 1 -steps 3
//	go run ./cmd/scaling -steps 2 -trace /tmp/t.json -profile /tmp/cpu.pprof
//	go run ./cmd/scaling -ranks 256,512,1024 -base-level 1
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func main() {
	baseLevel := flag.Int("base-level", 1, "refinement level of the smallest run")
	baseRanks := flag.Int("base-ranks", 1, "rank count of the smallest run")
	steps := flag.Int("steps", 3, "number of 8x weak-scaling steps")
	rankList := flag.String("ranks", "", "comma-separated rank counts to sweep at fixed -base-level (overrides -base-ranks/-steps)")
	tel := telemetry.NewDriver("scaling")
	flag.Parse()
	if err := tel.Start(); err != nil {
		log.Fatal(err)
	}
	defer tel.Finish()

	fmt.Println("Figure 4: weak scaling of forest-of-octrees AMR algorithms")
	fmt.Println("(six-octree forest, fractal refinement of children 0,3,5,6)")
	fmt.Println()
	fmt.Printf("%8s %7s %12s %10s | %8s %8s %8s %8s %8s %8s | %12s %12s\n",
		"ranks", "level", "octants", "oct/rank",
		"new", "refine", "part", "balance", "ghost", "nodes",
		"bal s/Moct", "nodes s/Moct")

	// The default sweep multiplies ranks by 8 per level increment (weak
	// scaling); -ranks replaces it with an explicit rank list at the fixed
	// base level (strong-scaling / high-P message-count sweeps).
	type runSpec struct {
		ranks int
		level int8
	}
	var specs []runSpec
	if *rankList != "" {
		ps, err := cli.ParseRanks(*rankList)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range ps {
			specs = append(specs, runSpec{p, int8(*baseLevel)})
		}
	} else {
		for i := 0; i < *steps; i++ {
			ranks := *baseRanks
			for j := 0; j < i; j++ {
				ranks *= 8
			}
			specs = append(specs, runSpec{ranks, int8(*baseLevel + i)})
		}
	}

	var rows []experiments.Fig4Row
	for _, spec := range specs {
		ranks, level := spec.ranks, spec.level
		// Every run is traced: the imbalance and recv-wait columns need it.
		world, tr := tel.BeginRun(ranks, trace.New(ranks))
		row := experiments.RunFig4(ranks, level,
			experiments.Obs{Tracer: tr, World: world, OnRank: tel.OnRank, Workers: tel.Workers()})
		rows = append(rows, row)
		fmt.Printf("%8d %7d %12d %10.0f | %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f | %12.3f %12.3f\n",
			row.Ranks, row.Level, row.Octants, row.PerRank*1e6,
			row.NewSec, row.RefineSec, row.PartSec, row.BalSec, row.GhostSec, row.NodesSec,
			row.BalNorm, row.NodesNorm)
	}

	fmt.Println()
	fmt.Println("Runtime shares (the paper: Balance and Nodes consume over 90%):")
	for _, r := range rows {
		tot := r.TotalAMRSec()
		if tot == 0 {
			continue
		}
		fmt.Printf("  ranks %6d: balance %5.1f%%  nodes %5.1f%%  partition %5.1f%%  ghost %5.1f%%  new+refine %5.1f%%\n",
			r.Ranks, 100*r.BalSec/tot, 100*r.NodesSec/tot, 100*r.PartSec/tot,
			100*r.GhostSec/tot, 100*(r.NewSec+r.RefineSec)/tot)
	}

	fmt.Println()
	fmt.Println("Communication volume (aggregate payload bytes and messages sent, per-tag stats):")
	for _, r := range rows {
		fmt.Printf("  ranks %6d: partition %9s /%7d msgs  balance %9s /%7d msgs  ghost %9s /%7d msgs  meta %s/rank\n",
			r.Ranks, fmtBytes(r.PartBytes), r.PartMsgs, fmtBytes(r.BalBytes), r.BalMsgs,
			fmtBytes(r.GhostBytes), r.GhostMsgs, fmtBytes(r.MetaBytes))
	}

	fmt.Println()
	fmt.Println("Per-phase imbalance (max/avg across ranks) and recv-wait share:")
	for _, r := range rows {
		fmt.Printf("  ranks %6d:", r.Ranks)
		for _, name := range experiments.Fig4Phases {
			fmt.Printf("  %s %.2f/%2.0f%%", name, r.PhaseImb[name], 100*r.PhaseWait[name])
		}
		fmt.Printf("  (balance rounds: %d)\n", r.BalanceRounds)
	}

	fmt.Println()
	fmt.Println("Parallel efficiency vs the smallest run (normalized Balance+Nodes):")
	base := rows[0].BalNorm + rows[0].NodesNorm
	for _, r := range rows {
		cur := r.BalNorm + r.NodesNorm
		if cur == 0 {
			continue
		}
		fmt.Printf("  ranks %6d: %5.1f%%\n", r.Ranks, 100*base/cur)
	}
}
