package core

import (
	"repro/internal/octant"
)

// Refine subdivides every local leaf for which shouldRefine returns true,
// replacing it by its eight children in z-order. With recursive set, newly
// created children are tested again, down to maxLevel (pass
// octant.MaxLevel for no extra bound). Refine requires no communication
// beyond the shared-counter refresh; partition markers stay valid because
// refinement never moves a rank's curve segment (paper §II.C).
func (f *Forest) Refine(recursive bool, maxLevel int8, shouldRefine func(octant.Octant) bool) {
	defer f.span("refine").End()
	out := make([]octant.Octant, 0, len(f.Local)+len(f.Local)/2)
	var expand func(o octant.Octant)
	expand = func(o octant.Octant) {
		if o.Level >= maxLevel || !shouldRefine(o) {
			out = append(out, o)
			return
		}
		for i := 0; i < octant.NumChildren; i++ {
			c := o.Child(i)
			if recursive {
				expand(c)
			} else {
				out = append(out, c)
			}
		}
	}
	for _, o := range f.Local {
		start := len(out)
		expand(o)
		if f.balanced && len(out) > start+1 {
			f.changed = append(f.changed, out[start:]...)
		}
	}
	f.Local = out
	f.adapted = true
	f.syncCounts()
}

// Coarsen replaces complete local families of eight sibling leaves by their
// parent wherever shouldCoarsen approves of the family. With recursive set,
// newly formed parents may coarsen again. Families split across rank
// boundaries are left untouched (repartitioning first makes all families
// local, as p4est does). Requires no communication beyond the counter
// refresh.
func (f *Forest) Coarsen(recursive bool, shouldCoarsen func(parent octant.Octant, children []octant.Octant) bool) {
	defer f.span("coarsen").End()
	for {
		out := f.Local[:0]
		changed := false
		i := 0
		for i < len(f.Local) {
			o := f.Local[i]
			if o.Level > 0 && o.ChildID() == 0 && i+octant.NumChildren <= len(f.Local) {
				fam := f.Local[i : i+octant.NumChildren]
				if octant.IsFamily(fam) {
					parent := o.Parent()
					if shouldCoarsen(parent, fam) {
						out = append(out, parent)
						if f.balanced {
							f.changed = append(f.changed, parent)
						}
						i += octant.NumChildren
						changed = true
						continue
					}
				}
			}
			out = append(out, o)
			i++
		}
		f.Local = out
		if !changed || !recursive {
			break
		}
	}
	f.adapted = true
	f.syncCounts()
}
