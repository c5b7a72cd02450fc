package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// unmetBySearch is what Forest.unmet finds, one region at a time: the
// distinct regions in curve order, each with the leaf a binary search
// (octant.SearchContaining) names, kept if that leaf is strictly coarser.
func unmetBySearch(leaves, cand []octant.Octant) []target {
	cand = slices.Clone(cand)
	slices.SortFunc(cand, octant.Compare)
	var out []target
	for _, a := range slices.Compact(cand) {
		if i := octant.SearchContaining(leaves, a); i >= 0 && leaves[i].Level < a.Level {
			out = append(out, target{i, a})
		}
	}
	return out
}

// walkCandidates returns the regions TestUnmetMatchesSearch asks about on
// one rank: Balance's own candidates (the full neighbourhood of every
// local leaf's parent, on or off the local segment) and, per leaf, the
// leaf itself, a child, a max-level descendant and the grandparent, which
// contains several leaves; and per tree, its root and the max-level
// octants inside its first and last leaf. Neighbourhoods overlap, so many
// regions come more than once.
func walkCandidates(f *Forest) []octant.Octant {
	var cand []octant.Octant
	var last octant.Octant
	for _, o := range f.Local {
		cand = append(cand, o, o.Child(7), o.LastDescendant(octant.MaxLevel), o.AncestorAt(max(o.Level-2, 0)))
		if o.Level > 0 && o.Parent() != last {
			last = o.Parent()
			cand = f.Conn.AppendNeighbors(cand, last, connectivity.FacesEdgesCorners)
		}
	}
	for tr := range int32(f.Conn.NumTrees()) {
		root := octant.Root(tr)
		cand = append(cand, root, octant.Octant{Level: octant.MaxLevel, Tree: tr}, root.LastDescendant(octant.MaxLevel))
	}
	return cand
}

// TestUnmetMatchesSearch pins the sorted, galloping walk of Forest.unmet
// against one binary search per region: target for target, in the same
// order, on the Fig-4 forest and the shell at P ∈ {1, 2, 3}, before
// Balance (the dense candidate set of a from-scratch Balance) and after
// it, and for a sparse subset (300 regions a rank, 30 of them twice, tens
// of leaves apart, so the walk gallops).
func TestUnmetMatchesSearch(t *testing.T) {
	forests := []struct {
		name  string
		build func(c *mpi.Comm) *Forest
	}{
		{"fig4", func(c *mpi.Comm) *Forest {
			f := New(c, connectivity.SixRotCubes(), 2)
			f.Refine(true, 5, fractalRefine(5))
			return f
		}},
		{"shell", func(c *mpi.Comm) *Forest {
			f := New(c, connectivity.Shell(0.55, 1), 2)
			f.Refine(true, 4, fractalRefine(4))
			return f
		}},
	}
	for _, fc := range forests {
		for _, p := range []int{1, 2, 3} {
			mpi.Run(p, func(c *mpi.Comm) {
				f := fc.build(c)
				f.Partition()
				for _, state := range []string{"refined", "balanced"} {
					if state == "balanced" {
						f.Balance(BalanceFull)
						f.Partition()
					}
					checkUnmet(t, f, fmt.Sprintf("%s %s, P=%d, rank %d", state, fc.name, p, c.Rank()))
				}
			})
		}
	}
}

// checkUnmet compares Forest.unmet with unmetBySearch on the dense and the
// sparse candidate set of one rank.
func checkUnmet(t *testing.T, f *Forest, where string) {
	t.Helper()
	if n := f.NumGlobal(); n < 20000 {
		t.Fatalf("%s: %d leaves, the test is for at least 20,000", where, n)
	}
	dense := walkCandidates(f)
	rng := rand.New(rand.NewPCG(uint64(len(f.Local)), leafHash(f.Local[0])))
	rng.Shuffle(len(dense), func(i, j int) { dense[i], dense[j] = dense[j], dense[i] })
	sparse := append(slices.Clone(dense[:300]), dense[:30]...)
	for _, set := range []struct {
		name string
		cand []octant.Octant
	}{{"dense", dense}, {"sparse", sparse}} {
		keys := make([]octant.CurveKey, len(set.cand))
		for i, a := range set.cand {
			keys[i] = a.CurveKey()
		}
		got := f.unmet(nil, keys)
		want := unmetBySearch(f.Local, set.cand)
		what := fmt.Sprintf("%s, %s (%d regions over %d leaves)", where, set.name, len(set.cand), len(f.Local))
		if len(want) == 0 {
			t.Errorf("%s: no region is unmet, the walk is untested", what)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: walk found %d targets, the searches %d", what, len(got), len(want))
		}
	}
}
