package core

import (
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

func TestAccessorsAndSearchHelpers(t *testing.T) {
	conn := connectivity.Brick(2, 1, 1, false, false, false)
	mpi.Run(3, func(c *mpi.Comm) {
		f := New(c, conn, 2)
		// GlobalFirst is consistent with the rank counts.
		counts := mpi.Allgather(f.Comm, int64(len(f.Local)))
		var before int64
		for r := 0; r < c.Rank(); r++ {
			before += counts[r]
		}
		if f.GlobalFirst() != before {
			t.Errorf("GlobalFirst = %d, want %d", f.GlobalFirst(), before)
		}
		// FindLeaf finds every local leaf and misses remote ones.
		for i, o := range f.Local {
			if f.FindLeaf(o) != i {
				t.Errorf("FindLeaf(%v) != %d", o, i)
			}
		}
		// Ghost search helpers.
		g := f.Ghost()
		if g.NumGhosts() != len(g.Octants) {
			t.Error("NumGhosts mismatch")
		}
		for _, q := range g.Octants {
			if g.FindGhost(q) < 0 {
				t.Errorf("FindGhost missed %v", q)
			}
			leaf, _, isGhost, found := f.FindLeafOrGhost(g, q)
			if !found || !isGhost || leaf != q {
				t.Errorf("FindLeafOrGhost(%v) = %v %v %v", q, leaf, isGhost, found)
			}
		}
		if len(f.Local) > 0 {
			leaf, idx, isGhost, found := f.FindLeafOrGhost(g, f.Local[0])
			if !found || isGhost || idx != 0 || leaf != f.Local[0] {
				t.Error("FindLeafOrGhost failed on local leaf")
			}
		}
		// A region outside both local and ghost storage.
		if c.Size() > 1 {
			remote := octant.Octant{Tree: 1, X: octant.RootLen / 2, Y: octant.RootLen / 2, Z: octant.RootLen / 2, Level: octant.MaxLevel}
			if f.OwnerOfPosition(markerOf(remote)) != c.Rank() {
				if _, _, _, found := f.FindLeafOrGhost(g, remote); found {
					// May legitimately be in the ghost layer; just exercise
					// the path.
					_ = found
				}
			}
		}
	})
}

func TestAssembleSumVec(t *testing.T) {
	conn := connectivity.UnitCube()
	mpi.Run(4, func(c *mpi.Comm) {
		f := New(c, conn, 2)
		g := f.Ghost()
		nd := f.Nodes(g)

		// AssembleSumVec with nc=2 must match two scalar AssembleSums.
		s1 := make([]float64, len(nd.Keys))
		s2 := make([]float64, len(nd.Keys))
		vec := make([]float64, 2*len(nd.Keys))
		for i := range s1 {
			s1[i] = float64(i%5) + float64(c.Rank())
			s2[i] = float64(i%3) - float64(c.Rank())
			vec[2*i] = s1[i]
			vec[2*i+1] = s2[i]
		}
		nd.AssembleSum(s1)
		nd.AssembleSum(s2)
		nd.AssembleSumVec(2, vec)
		for i := range s1 {
			if vec[2*i] != s1[i] || vec[2*i+1] != s2[i] {
				t.Fatalf("AssembleSumVec differs from scalar assembly at node %d", i)
			}
		}
	})
}
