package octant

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// keyCompare is the definition Compare implements without forming keys:
// tree, then Morton key, then level. It is the curve order's reference.
func keyCompare(a, b Octant) int {
	switch ka, kb := a.MortonKey(), b.MortonKey(); {
	case a.Tree != b.Tree:
		if a.Tree < b.Tree {
			return -1
		}
		return 1
	case ka != kb:
		if ka < kb {
			return -1
		}
		return 1
	}
	return int(a.Level) - int(b.Level)
}

// checkCompare fails unless Compare gives keyCompare's sign both ways round.
func checkCompare(t testing.TB, a, b Octant) {
	want := keyCompare(a, b)
	if want != 0 {
		want /= max(want, -want)
	}
	if got := Compare(a, b); got != want {
		t.Fatalf("Compare(%v, %v) = %d, key order says %d", a, b, got, want)
	}
	if got := Compare(b, a); got != -want {
		t.Fatalf("Compare(%v, %v) = %d, key order says %d", b, a, got, -want)
	}
	if Less(a, b) != (want < 0) {
		t.Fatalf("Less(%v, %v) disagrees with the key order", a, b)
	}
}

// randExterior returns a well-formed octant at a random level with every
// coordinate in [-RootLen, 2*RootLen), as neighbour computations produce.
func randExterior(rng *rand.Rand) Octant {
	l := int8(rng.Intn(MaxLevel + 1))
	c := func() int32 { return (rng.Int31n(3*RootLen) - RootLen) &^ (Len(l) - 1) }
	return Octant{X: c(), Y: c(), Z: c(), Level: l, Tree: int32(rng.Intn(3))}
}

// relative derives from a an octant standing in relation kind to it.
func relative(rng *rand.Rand, a Octant, kind int) Octant {
	b := randExterior(rng)
	b.Tree = a.Tree
	switch kind {
	case 0: // unrelated, maybe in another tree
		b.Tree = int32(rng.Intn(3))
	case 1: // one shared coordinate
		b.X = a.X
	case 2:
		b.Y = a.Y
	case 3:
		b.Z = a.Z
	case 4: // two shared coordinates
		b.X, b.Y = a.X, a.Y
	case 5:
		b.Y, b.Z = a.Y, a.Z
	case 6:
		b.X, b.Z = a.X, a.Z
	case 7: // equal position, any two levels
		b.X, b.Y, b.Z = a.X, a.Y, a.Z
	case 8: // ancestor
		b = a.AncestorAt(int8(rng.Intn(int(a.Level) + 1)))
	case 9: // descendant
		b = a
		for b.Level < MaxLevel && rng.Intn(4) != 0 {
			b = b.Child(rng.Intn(8))
		}
	case 10: // the same octant
		b = a
	case 11: // one finest-level step along one axis
		b = a
		step := int32(1 - 2*rng.Intn(2))
		switch rng.Intn(3) {
		case 0:
			b.X += step
		case 1:
			b.Y += step
		default:
			b.Z += step
		}
	}
	return b
}

func TestCompareMatchesMortonKey(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pairs := 1200000
	if testing.Short() {
		pairs /= 10
	}
	for i := 0; i < pairs; i++ {
		a := randExterior(rng)
		checkCompare(t, a, relative(rng, a, i%12))
	}
}

func FuzzCompare(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int8(0), int32(0), int32(0), int32(0), int32(0), int8(0), int32(0))
	f.Add(int32(-RootLen), int32(0), int32(RootLen), int8(1), int32(0), int32(RootLen), int32(0), int32(-RootLen), int8(1), int32(0))
	f.Add(int32(1), int32(2), int32(4), int8(MaxLevel), int32(1), int32(4), int32(2), int32(1), int8(MaxLevel), int32(1))
	f.Fuzz(func(t *testing.T, ax, ay, az int32, al int8, at, bx, by, bz int32, bl int8, bt int32) {
		checkCompare(t, Octant{ax, ay, az, al, at}, Octant{bx, by, bz, bl, bt})
	})
}

// inTree maps fuzz input onto an octant inside its tree: any level
// 0..MaxLevel, coordinates wrapped into the root and aligned, any
// non-negative tree.
func inTree(x, y, z int32, l int8, t int32) Octant {
	lv := int8(uint8(l) % (MaxLevel + 1))
	c := func(v int32) int32 { return int32(uint32(v)%uint32(RootLen)) &^ (Len(lv) - 1) }
	return Octant{c(x), c(y), c(z), lv, t & math.MaxInt32}
}

// checkCurveKey fails unless the unsigned order of the curve keys of a and
// b is Compare's.
func checkCurveKey(t testing.TB, a, b Octant) {
	ka, kb := a.CurveKey(), b.CurveKey()
	if got, want := cmp.Or(cmp.Compare(ka.Hi, kb.Hi), cmp.Compare(ka.Lo, kb.Lo)), Compare(a, b); got != want {
		t.Fatalf("curve keys of %v and %v order %d, Compare says %d", a, b, got, want)
	}
	if ka.Octant() != a {
		t.Fatalf("the curve key of %v decodes to %v", a, ka.Octant())
	}
}

// FuzzCurveKey checks the key order on the fuzzed pair and, so that ties
// on tree and position are not left to chance, on a against b moved to
// a's tree and position and against its own ancestor at b's level.
func FuzzCurveKey(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int8(0), int32(0), int32(0), int32(0), int32(0), int8(0), int32(0))
	f.Add(int32(RootLen-1), int32(RootLen-1), int32(RootLen-1), int8(MaxLevel), int32(0), int32(0), int32(0), int32(0), int8(0), int32(1))
	f.Fuzz(func(t *testing.T, ax, ay, az int32, al int8, at, bx, by, bz int32, bl int8, bt int32) {
		a, b := inTree(ax, ay, az, al, at), inTree(bx, by, bz, bl, bt)
		checkCurveKey(t, a, b)
		c := b
		c.X, c.Y, c.Z, c.Tree = a.X, a.Y, a.Z, a.Tree
		checkCurveKey(t, a, c)
		checkCurveKey(t, a, a.AncestorAt(min(a.Level, b.Level)))
	})
}

// randLeaves returns a random complete linear octree over trees 0 and 2 in
// curve order, built by recursive subdivision so that it owes nothing to
// Sort.
func randLeaves(rng *rand.Rand) []Octant {
	var leaves []Octant
	var split func(o Octant)
	split = func(o Octant) {
		if o.Level >= 4 || rng.Intn(3) == 0 {
			leaves = append(leaves, o)
			return
		}
		for i := 0; i < NumChildren; i++ {
			split(o.Child(i))
		}
	}
	split(Root(0))
	split(Root(2))
	return leaves
}

func TestSortAndSearchMatchKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 20; round++ {
		leaves := randLeaves(rng)
		shuffled := slices.Clone(leaves)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		slices.SortFunc(shuffled, Compare)
		if !slices.Equal(shuffled, leaves) {
			t.Fatal("Sort does not restore the tree traversal")
		}
		for k := 0; k < 2000; k++ {
			q := randExterior(rng)
			if k%2 == 0 { // a hit: an ancestor, a descendant or the leaf itself
				q = relative(rng, leaves[rng.Intn(len(leaves))], 8+k/2%3)
			}
			if got, want := SearchContaining(leaves, q), scanContaining(leaves, q); got != want {
				t.Fatalf("SearchContaining(%v) = %d, linear scan %d", q, got, want)
			}
			lo, hi := SearchOverlapRange(leaves, q)
			if wlo, whi := scanOverlapRange(leaves, q); lo != wlo || hi != whi {
				t.Fatalf("SearchOverlapRange(%v) = [%d,%d), linear scan [%d,%d)", q, lo, hi, wlo, whi)
			}
		}
	}
}

// scanContaining is SearchContaining by its definition, on keys, leaf by leaf.
func scanContaining(leaves []Octant, q Octant) int {
	i := -1
	for i+1 < len(leaves) && keyCompare(leaves[i+1], q) <= 0 {
		i++
	}
	switch {
	case i >= 0 && leaves[i].Contains(q):
		return i
	case i+1 < len(leaves) && q.Contains(leaves[i+1]):
		return i + 1
	case i >= 0 && q.Contains(leaves[i]):
		return i
	}
	return -1
}

// scanOverlapRange is SearchOverlapRange by its definition on key ranges.
func scanOverlapRange(leaves []Octant, q Octant) (lo, hi int) {
	first, end := q.MortonKey(), q.RangeEnd()
	past := func(o Octant, reached bool) bool { return o.Tree > q.Tree || o.Tree == q.Tree && reached }
	for lo < len(leaves) && !past(leaves[lo], leaves[lo].RangeEnd() > first) {
		lo++
	}
	for hi < len(leaves) && !past(leaves[hi], leaves[hi].MortonKey() >= end) {
		hi++
	}
	return lo, hi
}
