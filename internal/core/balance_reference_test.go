package core

import (
	"sort"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// This file preserves, verbatim in structure, the pre-recursive Balance:
// the iterative ripple protocol that collected the demands of every local
// leaf each round, routed them to all overlapping owners (self included),
// refined, and detected the global fixpoint with an AllreduceOr per round.
// It exists only as a test oracle: the recursive Balance must produce a
// bitwise-identical forest (same Checksum) on every workload, because both
// reach the unique minimal 2:1-balanced refinement.

// balanceRipple runs the old protocol to its fixpoint and returns the
// number of ripple rounds (the old BalanceRounds semantics).
func (f *Forest) balanceRipple(kind BalanceKind) int {
	round := 0
	for ; ; round++ {
		demands := f.rippleCollect(kind)
		routed := f.rippleRoute(demands)
		changed := f.rippleApply(routed)
		if !mpi.AllreduceOr(f.Comm, changed) {
			break
		}
	}
	f.syncCounts()
	return round + 1
}

func (f *Forest) rippleCollect(kind BalanceKind) map[octant.Octant]int8 {
	demands := make(map[octant.Octant]int8)
	for _, o := range f.Local {
		if o.Level < 1 {
			continue
		}
		min := o.Level - 1
		for _, n := range f.Conn.AppendNeighbors(nil, o, connectivity.Scope(kind)) {
			if cur, ok := demands[n]; !ok || cur < min {
				demands[n] = min
			}
		}
	}
	return demands
}

func (f *Forest) rippleRoute(demands map[octant.Octant]int8) []demand {
	out := make(map[int][]demand)
	for o, min := range demands {
		lo, hi := f.OwnersOfRange(o)
		for r := lo; r <= hi; r++ {
			out[r] = append(out[r], demand{O: o, MinLevel: min})
		}
	}
	in := mpi.SparseExchange(f.Comm, out, TagBalance)
	var mine []demand
	for _, ds := range in {
		mine = append(mine, ds...)
	}
	sort.Slice(mine, func(i, j int) bool { return octant.Less(mine[i].O, mine[j].O) })
	return mine
}

func (f *Forest) rippleApply(ds []demand) bool {
	if len(ds) == 0 {
		return false
	}
	byPos := make(map[octant.Octant]int8, len(ds))
	for _, d := range ds {
		if cur, ok := byPos[d.O]; !ok || cur < d.MinLevel {
			byPos[d.O] = d.MinLevel
		}
	}

	changed := false
	out := make([]octant.Octant, 0, len(f.Local))
	var expand func(o octant.Octant, active []demand)
	expand = func(o octant.Octant, active []demand) {
		need := false
		kept := active[:0:0]
		for _, d := range active {
			if !o.Contains(d.O) && !d.O.Contains(o) {
				continue
			}
			kept = append(kept, d)
			if o.Level < d.MinLevel {
				need = true
			}
		}
		if !need {
			out = append(out, o)
			return
		}
		changed = true
		for i := 0; i < octant.NumChildren; i++ {
			expand(o.Child(i), kept)
		}
	}

	j := 0
	for _, o := range f.Local {
		var active []demand
		for l := int8(0); l <= o.Level; l++ {
			a := o.AncestorAt(l)
			if min, ok := byPos[a]; ok && min > o.Level {
				active = append(active, demand{O: a, MinLevel: min})
			}
		}
		for j < len(ds) && octant.Compare(ds[j].O, o) <= 0 {
			j++
		}
		end := markerEnd(o)
		for k := j; k < len(ds); k++ {
			m := markerOf(ds[k].O)
			if !m.Less(end) {
				break
			}
			if o.IsAncestorOf(ds[k].O) && ds[k].MinLevel > o.Level {
				active = append(active, ds[k])
			}
		}
		if len(active) == 0 {
			out = append(out, o)
			continue
		}
		expand(o, active)
	}
	f.Local = out
	return changed
}
