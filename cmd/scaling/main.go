// Command scaling reproduces Figure 4 of the paper: weak scaling of the
// core forest-of-octrees algorithms (New, Refine, Partition, Balance,
// Ghost, Nodes) on the six-octree fractal workload. Rank counts are
// emulated by goroutines; each level increment multiplies both the octant
// count and the rank count by eight, holding octants per rank constant.
//
// Each row is the median of three runs by Balance+Nodes seconds per
// million octants, printed with the range of the three, after one
// discarded warm-up run. Every run is traced through internal/trace, so
// alongside the paper's timing table the report shows each phase's
// cross-rank imbalance (max/avg) and the share of the phase spent blocked
// in receives. A memory block gives, per octant after each phase of the
// warm-up run, the process's peak resident set so far and the live heap
// after a forced collection (outside the phase walls). With -trace the
// last run's full span timeline is written as Chrome trace-event JSON
// (one track per rank; open in Perfetto).
//
//	go run ./cmd/scaling -base-level 1 -steps 3
//	go run ./cmd/scaling -steps 2 -trace /tmp/t.json -profile /tmp/cpu.pprof
//	go run ./cmd/scaling -ranks 256,512,1024 -base-level 1
//	go run ./cmd/scaling -ranks 1 -base-level 3   # density: 1.93 M octants on one rank
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"slices"

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

// reps is how many timed runs a row takes the median of, after one
// discarded warm-up: single cold runs of one tree read one-rank Nodes at
// 1.6 to 2.1 s/Moct and the efficiency block at 87 to 126 %.
const reps = 3

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
	fmt.Printf("(each row: the median of %d runs by Balance+Nodes s/Moct, after one discarded warm-up run)\n", reps)
	fmt.Println()
	fmt.Printf("%8s %7s %12s %10s | %8s %8s %8s %8s %8s %8s | %12s %12s %15s\n",
		"ranks", "level", "octants", "oct/rank",
		"new", "refine", "part", "balance", "ghost", "nodes",
		"bal s/Moct", "nodes s/Moct", "b+n range")

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

	var rows, warm []experiments.Fig4Row
	for _, spec := range specs {
		runs := make([]experiments.Fig4Row, 1+reps)
		for i := range runs {
			// Every run is traced: the imbalance and recv-wait columns need it.
			world, tr := tel.BeginRun(spec.ranks, trace.New(spec.ranks))
			runs[i] = experiments.RunFig4(spec.ranks, spec.level,
				experiments.Obs{Tracer: tr, World: world, OnRank: tel.OnRank, Workers: tel.Workers()})
		}
		timed := runs[1:]
		slices.SortFunc(timed, func(a, b experiments.Fig4Row) int {
			return cmp.Compare(a.BalNorm+a.NodesNorm, b.BalNorm+b.NodesNorm)
		})
		row := timed[reps/2]
		rows, warm = append(rows, row), append(warm, runs[0])
		fmt.Printf("%8d %7d %12d %10.0f | %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f | %12.3f %12.3f %7.3f-%.3f\n",
			row.Ranks, row.Level, row.Octants, row.PerRank*1e6,
			row.NewSec, row.RefineSec, row.PartSec, row.BalSec, row.GhostSec, row.NodesSec,
			row.BalNorm, row.NodesNorm,
			timed[0].BalNorm+timed[0].NodesNorm, timed[reps-1].BalNorm+timed[reps-1].NodesNorm)
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
	fmt.Println("Bytes per octant after each phase of the warm-up run (peak RSS so far / live heap after a GC):")
	for _, r := range warm {
		fmt.Printf("  ranks %6d:", r.Ranks)
		for i, name := range experiments.Fig4Phases {
			fmt.Printf("  %s %4.0f/%3.0f", name, float64(r.PeakRSS[i])/float64(r.Octants), float64(r.Live[i])/float64(r.Octants))
		}
		fmt.Println()
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
