package sim_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/advect"
	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/rhea"
	"repro/internal/seismic"
	"repro/internal/sim"
)

// The constants in this file were recorded from the commit before the
// runtime existed (PR 13, d8e6af7), where every solver had its own adapt
// cycle, checkpoint writer and step loop: the shared code must reproduce
// those runs bit for bit.

func advectOpts(degree int, level, maxLevel int8) advect.Options {
	o := advect.DefaultOptions()
	o.Degree, o.Level, o.MaxLevel = degree, level, maxLevel
	return o
}

func seismicOpts(degree int, minLevel, maxLevel int8) seismic.Options {
	o := seismic.DefaultOptions()
	o.Degree, o.MinLevel, o.MaxLevel = degree, minLevel, maxLevel
	return o
}

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// runApp takes app through the whole step loop on p ranks and returns
// rank 0's result.
func runApp(t *testing.T, p int, run sim.Run, resume bool) sim.Result {
	t.Helper()
	var res sim.Result
	if err := mpi.RunErr(p, func(c *mpi.Comm) error { return run.Rank(c, resume, &res) }); err != nil {
		t.Fatalf("run on %d ranks: %v", p, err)
	}
	return res
}

// TestCheckpointGolden: the files the one checkpoint container writes are
// byte-identical to the ones the per-solver writers wrote, on any rank
// count, and the runs end in the recorded state.
func TestCheckpointGolden(t *testing.T) {
	cases := []struct {
		name           string
		run            sim.Run
		forest, fields string
		hash           uint64
	}{
		{"advect",
			sim.Run{App: advect.ShellApp(advectOpts(2, 1, 2)), Steps: 4, AdaptEvery: 2, CheckpointEvery: 2},
			"ca8b6190a37f0ea09e2deef3c0f809dae947138f56b9394c387844750f7d2d5c",
			"f11826a330e0b7010ec9446cd11f715c641145fa1bb394b187b7a45256dcaf4b",
			0x2557b2d715f52edb},
		{"seismic",
			sim.Run{App: seismic.EarthApp(seismicOpts(2, 1, 2)), Steps: 4, CheckpointEvery: 2},
			"1e2e96ecb9ff5a82e7e51c6bc6678037d52ef2007a0b185901159aad0b744641",
			"2f67dd510a6d3f4418fd59d30649f683da3b6f7763e1d248b8252c4148b1f0ae",
			0x0b35fd2ac6edd737},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 3} {
			tc.run.Base = filepath.Join(t.TempDir(), "ckpt")
			res := runApp(t, p, tc.run, false)
			if res.Hash != tc.hash {
				t.Errorf("%s P=%d: final hash %#016x, want %#016x", tc.name, p, res.Hash, tc.hash)
			}
			if got := fileSHA(t, tc.run.Base+".forest"); got != tc.forest {
				t.Errorf("%s P=%d: .forest sha256 %s, want %s", tc.name, p, got, tc.forest)
			}
			if got := fileSHA(t, tc.run.Base+".fields"); got != tc.fields {
				t.Errorf("%s P=%d: .fields sha256 %s, want %s", tc.name, p, got, tc.fields)
			}
		}
	}
}

// TestResumeParentCheckpoint: checkpoints written by the per-solver
// writers (testdata/parent-*, taken at step 2 of a 4-step run on 2 ranks)
// resume under the runtime, on other rank counts, to the state the
// uninterrupted runs reached.
func TestResumeParentCheckpoint(t *testing.T) {
	cases := []struct {
		name string
		run  sim.Run
		hash uint64
	}{
		{"advect", sim.Run{App: advect.ShellApp(advectOpts(1, 0, 1)), Steps: 4, AdaptEvery: 2}, 0x61cbf3b383f8aa1b},
		{"seismic", sim.Run{App: seismic.EarthApp(seismicOpts(1, 0, 1)), Steps: 4}, 0xa9c679e10d5c63eb},
	}
	for _, tc := range cases {
		// Resume from a copy: the step loop may write to Base.
		tc.run.Base = filepath.Join(t.TempDir(), tc.name)
		for _, ext := range []string{".forest", ".fields"} {
			copyFile(t, filepath.Join("testdata", "parent-"+tc.name+ext), tc.run.Base+ext)
		}
		for _, p := range []int{1, 3} {
			res := runApp(t, p, tc.run, true)
			if res.Steps != 4 || res.Hash != tc.hash {
				t.Errorf("%s P=%d: resumed to step %d hash %#016x, want step 4 hash %#016x",
					tc.name, p, res.Steps, res.Hash, tc.hash)
			}
		}
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err == nil {
		err = os.WriteFile(to, b, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCycleCounters: the churn counters of the advect run above, summed
// over ranks. The two in-loop adaptations find nothing to change (the
// fronts were resolved at construction, which is where the 32 refinements
// come from), so they must count as unchanged and ship nothing.
func TestCycleCounters(t *testing.T) {
	names := []string{"elements_shipped", "elements_coarsened", "elements_refined", "amr_unchanged", "checkpoint_saves"}
	want := map[int][]int64{1: {0, 0, 32, 2, 2}, 3: {113, 0, 32, 6, 6}}
	for p, w := range want {
		got := make([]int64, len(names))
		run := sim.Run{
			App: advect.ShellApp(advectOpts(2, 1, 2)), Steps: 4, AdaptEvery: 2, CheckpointEvery: 2,
			Base: filepath.Join(t.TempDir(), "ckpt"),
			OnStep: func(c *mpi.Comm, s sim.Solver, step int64, _ bool) error {
				if step == 4 {
					for i, n := range names {
						if v := mpi.AllreduceSum(c, s.Metrics().Count(n)); c.Rank() == 0 {
							got[i] = v
						}
					}
				}
				return nil
			},
		}
		runApp(t, p, run, false)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("P=%d: %v = %v, want %v", p, names, got, w)
		}
	}
}

// TestCycleUnchangedIsFree drives Cycle directly: with nothing flagged the
// forest keeps its checksum and Run must neither touch the field nor call
// Rebuild; with everything flagged it transfers, repartitions and
// rebuilds once.
func TestCycleUnchangedIsFree(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := advect.NewCustom(c, connectivity.UnitCube(), advectOpts(1, 1, 1), nil,
			func(x, y, z float64) float64 { return x })
		field := s.C
		rebuilds := 0
		cyc := sim.Cycle{
			Forest: s.F, Met: s.Met, MaxLevel: 2, Mesh: s.Mesh, NC: 1, Field: &field,
			Flag:    func(int, octant.Octant) int8 { return 0 },
			Rebuild: func() { rebuilds++ },
		}
		shipped := s.Met.Count("elements_shipped")
		if cyc.Run() || rebuilds != 0 || &field[0] != &s.C[0] || s.Met.Count("elements_shipped") != shipped {
			t.Errorf("rank %d: an unchanged cycle transferred, shipped or rebuilt", c.Rank())
		}
		n := s.F.NumGlobal()
		cyc.Flag = func(int, octant.Octant) int8 { return 1 }
		if !cyc.Run() || rebuilds != 1 || s.F.NumGlobal() != 8*n || len(field) != s.F.NumLocal()*s.Mesh.Np {
			t.Errorf("rank %d: refine-all cycle: rebuilds %d, %d -> %d elements, %d field values",
				c.Rank(), rebuilds, n, s.F.NumGlobal(), len(field))
		}
		if got := mpi.AllreduceSum(c, s.Met.Count("elements_refined")); got != n {
			t.Errorf("elements_refined = %d, want %d", got, n)
		}
	})
}

// wavefront makes the seismic solver adaptable by the step loop: refine
// where the wave is, never coarsen. (Coarsening is where rank-count
// independence ends: a family split across two ranks is not coarsened, so
// the adapted mesh depends on the partition.)
type wavefront struct{ *seismic.Solver }

func (w wavefront) Adapt() bool { return w.AdaptToWavefront(0.1, 0) }

// wavefrontApp is the earth run meshed to level 2 and allowed to refine
// to level 4 around the propagating wave.
func wavefrontApp() sim.App {
	meshing := seismicOpts(2, 1, 2)
	opts := seismicOpts(2, 1, 4)
	src := seismic.EarthSource(opts)
	return sim.App{
		New: func(c *mpi.Comm) sim.Solver {
			s := seismic.NewSolver(c, seismic.BuildEarthForest(c, meshing), opts, seismic.PREMAt)
			s.Source = src
			return wavefront{s}
		},
		Resume: func(c *mpi.Comm, base string) (sim.Solver, int64, error) {
			s, step, err := seismic.Resume(c, seismic.EarthConn(), opts, seismic.PREMAt, src, base)
			return wavefront{s}, step, err
		},
	}
}

// TestSeismicAdaptCrashMigrateBitwise extends the crash→migrate contract
// to the second solver with wavefront-tracking adaptation in the loop: the
// mesh is adapted at step 2, the world crashes on 3 ranks at step 3, the
// run resumes from the step-2 checkpoint on 2 ranks — under an active
// chaos plan — adapts again at step 4, and still ends bitwise equal to
// the uninterrupted 1-rank run (which equals the pre-runtime solver's).
func TestSeismicAdaptCrashMigrateBitwise(t *testing.T) {
	const want uint64 = 0x853e9ebdeec03fdd
	run := sim.Run{App: wavefrontApp(), Steps: 6, AdaptEvery: 2, CheckpointEvery: 2}
	if ref := runApp(t, 1, run, false); ref.Hash != want {
		t.Fatalf("uninterrupted P=1 hash %#016x, want %#016x", ref.Hash, want)
	}

	run.Base = filepath.Join(t.TempDir(), "ckpt")
	elems := map[int64]int64{} // step -> global elements, as each attempt saw it
	run.OnStep = func(c *mpi.Comm, s sim.Solver, step int64, _ bool) error {
		if c.Rank() == 0 {
			elems[step] = s.(wavefront).F.NumGlobal()
		}
		return nil
	}
	faults := sim.Faults{Seed: 11, Drop: 0.1, Dup: 0.1, CrashRank: 1, CrashStep: 3}
	var res sim.Result
	var ranksUsed []int
	err := sim.Restart{
		Ranks: 3, Plan: faults.Plan(), MaxRestarts: 1, Base: run.Base,
		NextRanks: func(r int) int { return r - 1 },
	}.Run(func(ranks int, plan *mpi.FaultPlan, resume bool) error {
		ranksUsed = append(ranksUsed, ranks)
		return mpi.RunErrOpt(ranks, mpi.RunOptions{Plan: plan},
			func(c *mpi.Comm) error { return run.Rank(c, resume, &res) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ranksUsed) != "[3 2]" {
		t.Errorf("attempts ran on %v ranks, want [3 2]", ranksUsed)
	}
	if !(elems[1] < elems[2] && elems[3] < elems[4]) {
		t.Errorf("elements per step %v: want the mesh refined at step 2 (before the crash) and at step 4 (after the migration)", elems)
	}
	if res.Hash != want {
		t.Errorf("migrated run hash %#016x, want %#016x", res.Hash, want)
	}
}

// TestCycleSeismicWithCoarsening pins the full wavefront cycle —
// coarsening included — on one rank against the pre-runtime solver: 1750
// elements meshed to level 3 collapse to 168 around the source.
func TestCycleSeismicWithCoarsening(t *testing.T) {
	if testing.Short() {
		t.Skip("1750-element earth run in -short")
	}
	mpi.Run(1, func(c *mpi.Comm) {
		s := seismic.EarthApp(seismicOpts(2, 1, 3)).New(c).(*seismic.Solver)
		dt := s.DT()
		for step := 1; step <= 6; step++ {
			s.Step(dt)
			if step%2 == 0 && s.AdaptToWavefront(0.1, 0.01) {
				dt = s.DT()
			}
		}
		if n, h := s.F.NumGlobal(), s.FieldHash(); n != 168 || h != 0x10588d6538fbf649 {
			t.Errorf("%d elements, hash %#016x; want 168, 0x10588d6538fbf649", n, h)
		}
	})
}

// TestCycleRhea pins the field-less use of the cycle: the mantle model's
// data- and solution-adaptive passes produce the recorded mesh and solver
// report, both when the solution pass changes the mesh and when it finds
// nothing to change (maxLevel 2: everything is already at the finest
// level, and the early-out must leave the forest partitioned as it was).
func TestCycleRhea(t *testing.T) {
	cases := []struct {
		maxLevel           int8
		dataAdapt          int
		elements, unknowns int64
		checksum           uint64
		minres             map[int]int // by rank count: MINRES reduces in P-dependent order
	}{
		{3, 1, 1704, 8056, 0xab53b0366889435e, map[int]int{1: 145, 2: 280}},
		{2, 2, 1536, 7720, 0x784723dc8b86e500, map[int]int{1: 125, 2: 252}},
	}
	for _, tc := range cases {
		for p, minres := range tc.minres {
			mpi.Run(p, func(c *mpi.Comm) {
				o := rhea.DefaultOptions()
				o.Level, o.MaxLevel, o.DataAdapt, o.SolAdapt, o.Picard = 1, tc.maxLevel, tc.dataAdapt, 1, 1
				m := rhea.New(c, o)
				rep := m.Run()
				sum := m.F.Checksum()
				if err := m.F.Validate(); err != nil {
					t.Errorf("maxLevel %d P=%d: %v", tc.maxLevel, p, err)
				}
				if diff := int64(m.F.NumLocal()) - m.F.NumGlobal()/int64(p); diff < 0 || diff > 1 {
					t.Errorf("maxLevel %d P=%d: rank %d holds %d of %d elements", tc.maxLevel, p, c.Rank(), m.F.NumLocal(), m.F.NumGlobal())
				}
				if c.Rank() != 0 {
					return
				}
				if rep.Elements != tc.elements || rep.Unknowns != tc.unknowns || sum != tc.checksum ||
					rep.PicardIters != 2 || rep.MinresIters != minres {
					t.Errorf("maxLevel %d P=%d: %d elements, %d unknowns, checksum %#x, %d Picard, %d MINRES iterations; want %d, %d, %#x, 2, %d",
						tc.maxLevel, p, rep.Elements, rep.Unknowns, sum, rep.PicardIters, rep.MinresIters,
						tc.elements, tc.unknowns, tc.checksum, minres)
				}
			})
		}
	}
}
