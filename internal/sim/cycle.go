// Package sim is the AMR simulation runtime: the one implementation each
// of the dynamic adapt cycle (Cycle), the time-step loop with its adapt
// and checkpoint cadence (Run), and the crash→resume loop with its fault
// plan (Restart, Faults). State — forest, mesh, fields — is owned by the
// framework; a solver plugs in as a per-element flag plus rebuild for the
// cycle, the Solver methods for the loop, and an App that constructs it
// fresh or from a checkpoint. The CLI drivers and the job server are
// constructors and hooks around these.
package sim

import (
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/metrics"
	"repro/internal/octant"
)

// Cycle describes one dynamic-AMR adaptation of a solver's forest, with
// the nodal field living on it carried along: mark → Coarsen → Refine →
// Balance → transfer the field between meshes → Partition with data →
// rebuild.
type Cycle struct {
	Forest   *core.Forest
	Met      *metrics.Registry
	MaxLevel int8
	// Flag marks local element e (leaf o): +1 refine, -1 coarsen, 0 keep.
	// A family is coarsened only when all eight siblings are flagged -1
	// and live on one rank.
	Flag func(e int, o octant.Octant) int8
	// Mesh, NC and Field describe the nodal field: NC values per node of
	// Mesh in *Field, which Run replaces with the adapted, repartitioned
	// data. A nil Mesh means no field (the forest alone is repartitioned).
	Mesh  *mangll.Mesh
	NC    int
	Field *[]float64
	// Rebuild, if set, recreates the solver's mesh-dependent state after
	// the forest changed; it is timed as part of the cycle.
	Rebuild func()
}

// Run performs the cycle and returns whether the forest changed. When
// nothing changed, the field is neither transferred nor repartitioned and
// Rebuild is not called. Collective. Time goes to the rank's "adapt" span,
// churn to the elements_coarsened/refined/shipped and amr_unchanged
// counters.
func (c Cycle) Run() bool {
	f := c.Forest
	tr := f.Comm.Tracer()
	tr.Begin("adapt")
	defer tr.End()
	flags := make(map[octant.Octant]int8, f.NumLocal())
	for e, o := range f.Local {
		if fl := c.Flag(e, o); fl != 0 {
			flags[o] = fl
		}
	}
	before := f.Checksum()

	coarsened := 0
	f.Coarsen(false, func(parent octant.Octant, kids []octant.Octant) bool {
		for _, k := range kids {
			if flags[k] != -1 {
				return false
			}
		}
		coarsened++
		return true
	})
	refined := 0
	f.Refine(false, c.MaxLevel, func(o octant.Octant) bool {
		if flags[o] == 1 {
			refined++
			return true
		}
		return false
	})
	f.Balance(core.BalanceFull)
	if f.Checksum() == before {
		c.Met.Counter("amr_unchanged").Add(1)
		return false
	}
	var sent int64
	if c.Mesh == nil {
		sent = f.Partition()
	} else {
		// The mesh still describes the leaves the field lives on.
		data := c.Mesh.TransferFields(c.Mesh.Leaves, *c.Field, f.Local, c.NC)
		*c.Field, sent = f.PartitionWithData(c.Mesh.Np*c.NC, data)
	}
	c.Met.Counter("elements_shipped").Add(sent)
	c.Met.Counter("elements_coarsened").Add(int64(coarsened * 8))
	c.Met.Counter("elements_refined").Add(int64(refined))
	if c.Rebuild != nil {
		c.Rebuild()
	}
	return true
}
