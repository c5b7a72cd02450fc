package mangll

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// pick hashes an octant and a salt into [0, n): the same marking on every
// rank and rank count.
func pick(o octant.Octant, salt, n uint64) uint64 {
	h := uint64(uint32(o.Tree))<<56 ^ uint64(o.MortonKey())<<8 ^ uint64(o.Level) ^ salt*0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h % n
}

// sameBits reports whether two float arrays are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// sameMesh fails the test unless got, a mesh rebuilt in place, equals want,
// built from scratch on the same forest, in everything a kernel or a
// frontend's set-up reads.
func sameMesh(t *testing.T, what string, got, want *Mesh) {
	t.Helper()
	bad := func(field string) { t.Errorf("%s: rebuilt mesh differs from a new one in %s", what, field) }
	if got.NumLocal != want.NumLocal || got.NumGhost != want.NumGhost {
		t.Fatalf("%s: %d+%d elements, want %d+%d", what, got.NumLocal, got.NumGhost, want.NumLocal, want.NumGhost)
	}
	for a := 0; a < 3; a++ {
		if !sameBits(got.X[a], want.X[a]) {
			bad(fmt.Sprintf("X[%d]", a))
		}
	}
	if !sameBits(got.Jac, want.Jac) {
		bad("Jac")
	}
	if !sameBits(got.MassInv, want.MassInv) {
		bad("MassInv")
	}
	if math.Float64bits(got.MinLen) != math.Float64bits(want.MinLen) {
		bad("MinLen")
	}
	if !slices.Equal(got.Leaves, want.Leaves) || !slices.Equal(got.Leaves, got.F.Local) {
		bad("Leaves")
	}
	if !slices.Equal(got.Links, want.Links) {
		bad("Links")
	}
	if !slices.Equal(got.InteriorElems, want.InteriorElems) || !slices.Equal(got.BoundaryElems, want.BoundaryElems) {
		bad("InteriorElems/BoundaryElems")
	}
	if !slices.Equal(got.intLinks, want.intLinks) || !slices.Equal(got.bndLinks, want.bndLinks) {
		bad("intLinks/bndLinks")
	}
	if len(got.batches) != len(want.batches) {
		bad("batches")
	}
	// The metric, through the accessor and FaceArea on each mesh. The
	// derived Jacobian must also be the one the mesh keeps.
	a, b := make([]float64, got.Nf), make([]float64, got.Nf)
	for e := 0; e < got.NumLocal; e++ {
		gg, gj := got.Metric(got.SerialWork(), e)
		wg, wj := want.Metric(want.SerialWork(), e)
		if !sameBits(gj, wj) || !sameBits(gj, got.Jac[e*got.Np:(e+1)*got.Np]) {
			bad(fmt.Sprintf("Metric(%d)'s Jacobian", e))
			return
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if !sameBits(gg[r][c], wg[r][c]) {
					bad(fmt.Sprintf("Metric(%d)[%d][%d]", e, r, c))
					return
				}
			}
		}
		for f := 0; f < 6; f++ {
			for c := 0; c < 3; c++ {
				got.FaceArea(gg, f, c, a)
				want.FaceArea(wg, f, c, b)
				if !sameBits(a, b) {
					bad(fmt.Sprintf("FaceArea(%d, %d, %d)", e, f, c))
					return
				}
			}
		}
	}
	// The exchange lists, through what they do.
	fa := make([]float64, (got.NumLocal+got.NumGhost)*got.Np)
	copy(fa, got.X[0])
	fb := slices.Clone(fa)
	got.ExchangeGhost(1, fa)
	want.ExchangeGhost(1, fb)
	if !sameBits(fa, fb) {
		bad("the ghost exchange")
	}
}

// TestRebuildMatchesFromScratch drives one mesh through adapt cycles —
// seeded coarsening and refinement, one that shrinks every rank, one that
// outgrows the storage, one where only the partition moves — and after
// each Rebuild compares it bitwise with NewMesh on the same forest.
func TestRebuildMatchesFromScratch(t *testing.T) {
	conns := map[string]*connectivity.Conn{
		"shell": connectivity.Shell(0.55, 1),
		"six":   connectivity.SixRotCubes(),
	}
	for name, conn := range conns {
		for _, p := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2} {
				what := fmt.Sprintf("%s/P%d/w%d", name, p, workers)
				mpi.RunOpt(p, mpi.RunOptions{Workers: workers}, func(c *mpi.Comm) {
					f, m := buildMesh(c, conn, 1, 2, 2)
					check := func(cycle string) {
						t.Helper()
						g := f.Ghost()
						m.Rebuild(g)
						sameMesh(t, what+" "+cycle, m, NewMesh(f, g, m.L))
					}
					total := func(n int) int64 { return mpi.AllreduceSum(c, int64(n)) }

					for salt := uint64(1); salt <= 3; salt++ {
						f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool { return pick(parent, salt, 3) == 0 })
						f.Refine(false, 3, func(o octant.Octant) bool { return pick(o, salt, 7) == 1 })
						f.Balance(core.BalanceFull)
						f.Partition()
						check(fmt.Sprintf("seeded cycle %d", salt))
						if kept := total(m.NumLocal - len(m.fresh)); kept == 0 || kept == f.NumGlobal() {
							t.Errorf("%s seeded cycle %d: %d of %d elements kept, want some but not all", what, salt, kept, f.NumGlobal())
						}
					}

					before := m.NumLocal
					f.Coarsen(true, func(parent octant.Octant, _ []octant.Octant) bool { return parent.Level >= 1 })
					f.Balance(core.BalanceFull)
					check("shrink")
					if m.NumLocal >= before && before > 0 {
						t.Errorf("%s shrink: rank %d went from %d to %d elements", what, c.Rank(), before, m.NumLocal)
					}

					room := cap(m.Jac)
					f.Refine(true, 3, func(o octant.Octant) bool { return o.Level < 2 || pick(o, 9, 2) == 0 })
					f.Balance(core.BalanceFull)
					check("outgrow")
					if m.NumLocal*m.Np <= room {
						t.Errorf("%s outgrow: %d values still fit the %d there were", what, m.NumLocal*m.Np, room)
					}

					w := make([]float64, f.NumLocal())
					for i := range w {
						w[i] = 1 + 3*float64(c.Rank())
					}
					sent := total(int(f.PartitionWeighted(w)))
					check("partition shift")
					if p > 1 && (sent == 0 || total(len(m.fresh)) != sent) {
						t.Errorf("%s partition shift: %d leaves shipped, %d elements fresh", what, sent, total(len(m.fresh)))
					}
				})
			}
		}
	}
}

// TestCarry checks the in-place table move on the orders an adapt cycle
// produces: shrinking, growing within capacity and past it, nothing kept.
func TestCarry(t *testing.T) {
	const stride = 3
	row := func(i int32) []int { return []int{int(i) * 10, int(i)*10 + 1, int(i)*10 + 2} }
	a := Carry[int](nil, []int32{-1, -1, -1, -1, -1, -1}, stride)
	if len(a) != 6*stride || cap(a) != 6*stride {
		t.Fatalf("first table: len %d cap %d, want exactly %d", len(a), cap(a), 6*stride)
	}
	next := int32(0) // names the next row to fill
	for ; next < 6; next++ {
		copy(a[next*stride:], row(next))
	}
	for _, src := range [][]int32{
		{0, 2, 3, 5},                     // shrink
		{-1, 0, -1, 1, 2, 3},             // grow within capacity: rows move right
		{1, -1, -1, 2, -1, 4, 5, -1, -1}, // past capacity
		{-1, -1},                         // nothing kept
		{},
	} {
		// A row is known by its first value.
		var want []int
		for _, from := range src {
			if from < 0 {
				want = append(want, -1)
			} else {
				want = append(want, a[int(from)*stride])
			}
		}
		room := cap(a)
		a = Carry(a, src, stride)
		if len(a) != len(src)*stride {
			t.Fatalf("src %v: len %d", src, len(a))
		}
		if len(a) <= room && cap(a) != room {
			t.Errorf("src %v: reallocated although %d values fit %d", src, len(a), room)
		}
		for e, from := range src {
			r := a[e*stride : (e+1)*stride]
			if from < 0 {
				copy(r, row(next))
				next++
			} else if r[0] != want[e] || r[1] != r[0]+1 || r[2] != r[0]+2 {
				t.Errorf("src %v: row %d is %v, want the row starting %d", src, e, r, want[e])
			}
		}
	}
}
