package experiments

import (
	"testing"

	"repro/internal/advect"
	"repro/internal/rhea"
	"repro/internal/seismic"
)

func TestRunFig4ShapeMatchesPaper(t *testing.T) {
	row := RunFig4(2, 1, Obs{})
	if row.Octants == 0 {
		t.Fatal("no octants")
	}
	// The paper's top chart: Balance and Nodes dominate; New, Refine, and
	// Partition are negligible.
	tot := row.TotalAMRSec()
	if tot <= 0 {
		t.Fatal("no runtime recorded")
	}
	if (row.BalSec+row.NodesSec)/tot < 0.5 {
		t.Errorf("balance+nodes only %.1f%% of runtime", 100*(row.BalSec+row.NodesSec)/tot)
	}
	if (row.NewSec+row.RefineSec)/tot > 0.2 {
		t.Errorf("new+refine unexpectedly large: %.1f%%", 100*(row.NewSec+row.RefineSec)/tot)
	}
	if row.BalNorm <= 0 || row.NodesNorm <= 0 {
		t.Error("normalized metrics missing")
	}
}

func TestRunFig5Sane(t *testing.T) {
	opts := advect.DefaultOptions()
	opts.Level = 1
	opts.MaxLevel = 2
	row := RunFig5(2, opts, 4, 2, Obs{})
	if row.Elements == 0 || row.Unknowns == 0 {
		t.Fatalf("empty: %+v", row)
	}
	if row.AMRPercent < 0 || row.AMRPercent > 100 {
		t.Fatalf("amr%% = %v", row.AMRPercent)
	}
	if row.NormPerStep <= 0 {
		t.Fatalf("norm = %v", row.NormPerStep)
	}
}

func TestRunFig7Sane(t *testing.T) {
	opts := rhea.DefaultOptions()
	opts.MaxLevel = 2
	opts.DataAdapt = 1
	opts.SolAdapt = 1
	opts.Picard = 1
	opts.MinresIter = 60
	opts.MinresTol = 1e-3
	row := RunFig7(2, opts)
	r := row.Report
	sum := r.SolvePct + r.VcyclePct + r.AMRPct
	if sum < 99 || sum > 101 {
		t.Fatalf("split does not sum to 100: %v", sum)
	}
	// The paper's headline: AMR is a small fraction of the solve.
	if r.AMRPct > 60 {
		t.Errorf("AMR share implausibly large: %v%%", r.AMRPct)
	}
}

func TestRunFig9And10Sane(t *testing.T) {
	opts := seismic.DefaultOptions()
	opts.Degree = 2
	opts.MaxLevel = 2
	opts.FreqHz = 0.0008
	r9 := RunFig9(2, opts, 2, Obs{})
	if r9.Elements == 0 || r9.MeshingSec <= 0 || r9.WavePerStep <= 0 || r9.GFlops <= 0 {
		t.Fatalf("fig9: %+v", r9)
	}
	r10 := RunFig10(2, opts, 2, Obs{})
	if r10.Elements == 0 || r10.TransferSec < 0 || r10.WaveUsPerElt <= 0 {
		t.Fatalf("fig10: %+v", r10)
	}
}
