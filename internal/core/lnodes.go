package core

import (
	"fmt"

	"repro/internal/connectivity"
	"repro/internal/octant"
)

// LNodes is the globally unique numbering of degree-N continuous
// tensor-product unknowns on a CONFORMING forest (every face neighbour the
// same size), completing the paper's statement that Nodes supports
// "high-order non-conforming nodal polynomial discretizations": the
// trilinear case with hanging constraints is Forest.Nodes; LNodes provides
// arbitrary order with full inter-tree orientation handling on conforming
// meshes (the paper's high-order applications are discontinuous and use
// per-element dG numbering, so hanging high-order continuous constraints
// are never exercised by its experiments).
//
// Node identity is geometric on the degree-refined lattice: the node at
// tensor index (i,j,k) of element o lives at the integer point
// N*corner(o) + (i,j,k)*len(o) of the scale-N lattice, which inter-tree
// transforms map exactly; equality of canonical images is equality of
// physical nodes, for any rotation between trees.
type LNodes struct {
	Degree int
	// ElementNodes holds (N+1)^3 entries per local element: the local node
	// indices of element e in lexicographic (i fastest) order start at
	// e·(N+1)^3.
	ElementNodes []int32
	// Keys (canonical points of the lattice refined by Degree), GlobalID,
	// Owner, NumOwned, OwnedOffset and NumGlobal.
	numbering
}

// LNodes builds the degree-N continuous numbering. The forest must be
// conforming (uniformly sized face neighbours); LNodes panics otherwise.
// ghost must be the current ghost layer. Collective.
func (f *Forest) LNodes(ghost *GhostLayer, degree int) *LNodes {
	if degree < 1 || degree > 15 {
		panic("core: LNodes degree must be in [1, 15]")
	}
	defer f.span("lnodes").End()
	n32 := int32(degree)
	np1 := degree + 1

	// Conformity check: every interior face neighbour must be equal-size.
	search := mergeLeaves(f.Local, ghost.Octants)
	var nbs []octant.Octant
	for _, o := range f.Local {
		nbs = f.Conn.AppendNeighbors(nbs[:0], o, connectivity.Faces)
		for _, nb := range nbs {
			i := octant.SearchContaining(search, nb)
			if i < 0 || !search[i].Contains(nb) {
				panic(fmt.Sprintf("core: LNodes missing neighbour of %v (ghost layer stale?)", o))
			}
			if leaf := search[i]; leaf.Level != o.Level {
				panic(fmt.Sprintf("core: LNodes requires a conforming mesh; %v has level-%d neighbour %v", o, leaf.Level, leaf))
			}
		}
	}

	// Every tensor node asks for the index of its canonical point.
	npe := np1 * np1 * np1
	want := make([]keySlot, 0, npe*len(f.Local))
	for _, o := range f.Local {
		h := o.Len()
		base := [3]int32{n32 * o.X, n32 * o.Y, n32 * o.Z}
		for k := 0; k < np1; k++ {
			for j := 0; j < np1; j++ {
				for i := 0; i < np1; i++ {
					p := [3]int32{
						base[0] + int32(i)*h,
						base[1] + int32(j)*h,
						base[2] + int32(k)*h,
					}
					want = append(want, keySlot{f.canonical(o.Tree, p, n32), int32(len(want))})
				}
			}
		}
	}
	refs := make([]int32, len(want))
	return &LNodes{Degree: degree, ElementNodes: refs, numbering: f.number(intern(want, refs), n32, 40)}
}

// AssembleSum adds, for every shared high-order node, the contributions of
// all referencing ranks, leaving every rank with the assembled value — the
// parallel scatter/gather for continuous high-order unknowns. v is indexed
// by local node. Collective.
func (ln *LNodes) AssembleSum(v []float64) { ln.assemble(1, v, TagNodesReq+60, sum) }
