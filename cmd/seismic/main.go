// Command seismic reproduces the Figure 9 and Figure 10 tables of the
// paper: strong scaling of global seismic wave propagation (host backend),
// and weak scaling of the single-precision device backend with explicit
// mesh-transfer accounting.
//
//	go run ./cmd/seismic -strong -ranks 1,2,4
//	go run ./cmd/seismic -device -ranks 1,2,4 -trace /tmp/t.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/cmd/internal/cli"
	"repro/cmd/internal/robust"
	"repro/internal/experiments"
	"repro/internal/seismic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	strong := flag.Bool("strong", false, "run the Figure 9 strong-scaling table")
	device := flag.Bool("device", false, "run the Figure 10 device weak-scaling table")
	ranks := flag.String("ranks", "1,2,4", "comma-separated rank/device counts")
	degree := flag.Int("degree", 4, "polynomial degree (paper: 6 and 7)")
	freq := flag.Float64("freq", 0.002, "source frequency in Hz (paper: 0.28)")
	steps := flag.Int("steps", 5, "time steps to average over")
	maxLevel := flag.Int("max-level", 4, "finest refinement level")
	tel := telemetry.NewDriver("seismic")
	rb := robust.Register()
	flag.Parse()
	if !*strong && !*device {
		*strong = true
	}
	rankList, err := cli.ParseRanks(*ranks)
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.Start(); err != nil {
		log.Fatal(err)
	}
	defer tel.Finish()

	opts := seismic.DefaultOptions()
	opts.Degree = *degree
	opts.FreqHz = *freq
	opts.MaxLevel = int8(*maxLevel)

	if rb.Base != "" {
		run := sim.Run{App: seismic.EarthApp(opts), Steps: *steps}
		if err := rb.Run(rankList[0], tel, run); err != nil {
			fmt.Println("robust run:", err)
			os.Exit(1)
		}
		return
	}

	obsFor := func(p int) experiments.Obs {
		world, tr := tel.BeginRun(p, nil)
		return experiments.Obs{Tracer: tr, World: world, OnRank: tel.OnRank, Workers: tel.Workers()}
	}

	if *strong {
		fmt.Println("Figure 9: strong scaling of global seismic wave propagation (PREM earth)")
		fmt.Printf("%8s %10s %12s | %12s %14s %10s %10s\n",
			"ranks", "elements", "unknowns", "meshing(s)", "waveprop(s/st)", "par-eff", "GFlop/s")
		var base experiments.Fig9Row
		for i, p := range rankList {
			row := experiments.RunFig9(p, opts, *steps, obsFor(p))
			if i == 0 {
				base = row
				row.ParEff = 1
			} else {
				// Serialized host: fixed total work, so flat wall time per
				// step means perfect strong scaling (no added overhead).
				row.ParEff = base.WavePerStep / row.WavePerStep
			}
			fmt.Printf("%8d %10d %12d | %12.3f %14.4f %10.2f %10.2f\n",
				row.Ranks, row.Elements, row.Unknowns,
				row.MeshingSec, row.WavePerStep, row.ParEff, row.GFlops)
		}
		fmt.Println("(paper, 32K->224K cores: par eff 0.99-1.02; meshing time in the noise)")
	}

	if *device {
		fmt.Println()
		fmt.Println("Figure 10: weak scaling of the single-precision device backend")
		fmt.Printf("%8s %10s | %10s %10s %16s %10s %10s\n",
			"devices", "elements", "mesh(s)", "transf(s)", "wave us/st/elem", "par-eff", "GFlop/s")
		var base experiments.Fig10Row
		for i, p := range rankList {
			// Weak scaling: elements grow with rank count by raising the
			// meshing frequency (elements scale roughly with freq^3).
			o := opts
			o.FreqHz = opts.FreqHz * math.Cbrt(float64(p))
			row := experiments.RunFig10(p, o, *steps, obsFor(p))
			if i == 0 {
				base = row
				row.ParEff = 1
			} else if row.WaveUsPerElt > 0 {
				row.ParEff = base.WaveUsPerElt / row.WaveUsPerElt
			}
			fmt.Printf("%8d %10d | %10.3f %10.3f %16.2f %10.3f %10.2f\n",
				row.Devices, row.Elements, row.MeshSec, row.TransferSec,
				row.WaveUsPerElt, row.ParEff, row.GFlops)
		}
		fmt.Println("(paper, 8->256 GPUs: par eff 1.000-0.997; transfer amortized over many steps)")
	}
}
