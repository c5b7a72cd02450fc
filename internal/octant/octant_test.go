package octant

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randOctant returns a uniformly random valid octant at a random level.
func randOctant(rng *rand.Rand, maxLevel int8) Octant {
	l := int8(rng.Intn(int(maxLevel) + 1))
	mask := ^(Len(l) - 1)
	return Octant{
		X:     rng.Int31n(RootLen) & mask,
		Y:     rng.Int31n(RootLen) & mask,
		Z:     rng.Int31n(RootLen) & mask,
		Level: l,
	}
}

func TestRootValid(t *testing.T) {
	r := Root(0)
	if !r.Valid() || r.Len() != RootLen || r.Level != 0 {
		t.Fatalf("bad root %v", r)
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		o := randOctant(rng, MaxLevel-1)
		for c := 0; c < 8; c++ {
			ch := o.Child(c)
			if !ch.Valid() {
				t.Fatalf("invalid child %v of %v", ch, o)
			}
			if ch.Parent() != o {
				t.Fatalf("parent(child(%v,%d)) = %v", o, c, ch.Parent())
			}
			if ch.ChildID() != c {
				t.Fatalf("childID(%v) = %d, want %d", ch, ch.ChildID(), c)
			}
			if !o.IsAncestorOf(ch) || !o.Contains(ch) {
				t.Fatalf("%v should be ancestor of %v", o, ch)
			}
		}
	}
}

func TestIsFamily(t *testing.T) {
	o := Root(0).Child(3).Child(5)
	kids := o.Children()
	if !IsFamily(kids[:]) {
		t.Fatal("children should form a family")
	}
	bad := kids
	bad[2] = bad[2].Child(0)
	if IsFamily(bad[:]) {
		t.Fatal("broken family accepted")
	}
	perm := kids
	perm[0], perm[1] = perm[1], perm[0]
	if IsFamily(perm[:]) {
		t.Fatal("out-of-order family accepted")
	}
}

func TestAncestorAt(t *testing.T) {
	o := Root(0).Child(7).Child(0).Child(5).Child(2)
	if got := o.AncestorAt(0); got != Root(0) {
		t.Fatalf("ancestor at 0 = %v", got)
	}
	if got := o.AncestorAt(o.Level); got != o {
		t.Fatalf("ancestor at own level = %v", got)
	}
	if got := o.AncestorAt(2); got != Root(0).Child(7).Child(0) {
		t.Fatalf("ancestor at 2 = %v", got)
	}
}

func TestFaceNeighborSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		o := randOctant(rng, 10)
		for f := 0; f < NumFaces; f++ {
			n := o.FaceNeighbor(f)
			back := n.FaceNeighbor(f ^ 1)
			if back != o {
				t.Fatalf("face neighbour not symmetric: %v -f%d-> %v -f%d-> %v", o, f, n, f^1, back)
			}
		}
	}
}

func TestEdgeCornerNeighborInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Opposite edge within the same axis group: flip both transverse bits.
	oppEdge := func(e int) int { return (e/4)*4 + (3 - e%4) }
	for i := 0; i < 1000; i++ {
		o := randOctant(rng, 10)
		for e := 0; e < NumEdges; e++ {
			n := o.EdgeNeighbor(e)
			if back := n.EdgeNeighbor(oppEdge(e)); back != o {
				t.Fatalf("edge neighbour not symmetric: %v -e%d-> %v", o, e, n)
			}
		}
		for c := 0; c < NumCorners; c++ {
			n := o.CornerNeighbor(c)
			if back := n.CornerNeighbor(7 - c); back != o {
				t.Fatalf("corner neighbour not symmetric: %v -c%d-> %v", o, c, n)
			}
		}
	}
}

func TestTouchingFace(t *testing.T) {
	o := Root(0).Child(0) // lowest corner child
	for f := 0; f < 6; f++ {
		want := f%2 == 0 // touches all low faces only
		if o.TouchingFace(f) != want {
			t.Errorf("TouchingFace(%d) = %v, want %v", f, o.TouchingFace(f), want)
		}
	}
	o = Root(0).Child(7)
	for f := 0; f < 6; f++ {
		want := f%2 == 1
		if o.TouchingFace(f) != want {
			t.Errorf("child7 TouchingFace(%d) = %v, want %v", f, o.TouchingFace(f), want)
		}
	}
}

func TestExteriorFaces(t *testing.T) {
	o := Root(0).Child(0)
	n := o.FaceNeighbor(0)
	if n.Inside() {
		t.Fatal("neighbour across boundary should be exterior")
	}
	if d := n.ExteriorFaces(); d != [3]int{-1, 0, 0} {
		t.Fatalf("ExteriorFaces = %v", d)
	}
	n = Root(0).Child(7).CornerNeighbor(7)
	if d := n.ExteriorFaces(); d != [3]int{1, 1, 1} {
		t.Fatalf("corner ExteriorFaces = %v", d)
	}
	if d := o.ExteriorFaces(); d != [3]int{0, 0, 0} {
		t.Fatalf("interior ExteriorFaces = %v", d)
	}
}

func TestMortonKeyRoundTrip(t *testing.T) {
	err := quick.Check(func(x, y, z uint32) bool {
		o := Octant{
			X:     int32(x % uint32(RootLen)),
			Y:     int32(y % uint32(RootLen)),
			Z:     int32(z % uint32(RootLen)),
			Level: MaxLevel,
		}
		return FromMortonKey(o.MortonKey(), MaxLevel, 0) == o
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMortonOrderMatchesRecursion(t *testing.T) {
	// The z-order traversal of a uniformly refined tree must match key order.
	var walk func(o Octant, depth int8, out *[]Octant)
	walk = func(o Octant, depth int8, out *[]Octant) {
		if depth == 0 {
			*out = append(*out, o)
			return
		}
		for i := 0; i < 8; i++ {
			walk(o.Child(i), depth-1, out)
		}
	}
	var leaves []Octant
	walk(Root(0), 2, &leaves)
	if len(leaves) != 64 {
		t.Fatalf("got %d leaves", len(leaves))
	}
	for i := 1; i < len(leaves); i++ {
		if !Less(leaves[i-1], leaves[i]) {
			t.Fatalf("recursion order != Morton order at %d: %v %v", i, leaves[i-1], leaves[i])
		}
	}
}

func TestCompareAncestorFirst(t *testing.T) {
	o := Root(0).Child(1)
	c := o.Child(0) // same corner coordinates, deeper level
	if Compare(o, c) != -1 || Compare(c, o) != 1 || Compare(o, o) != 0 {
		t.Fatal("ancestor must precede descendant with equal key")
	}
	a := Octant{Tree: 0, Level: MaxLevel}
	b := Octant{Tree: 1, Level: 0}
	if Compare(a, b) != -1 {
		t.Fatal("lower tree must come first")
	}
}

func TestRangeEnd(t *testing.T) {
	o := Root(0)
	if o.RangeEnd() != Key(NumDescendants(0)) {
		t.Fatal("root range must cover whole tree")
	}
	// Children partition the parent's range exactly.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		o := randOctant(rng, 10)
		start := o.MortonKey()
		for c := 0; c < 8; c++ {
			ch := o.Child(c)
			if ch.MortonKey() != start {
				t.Fatalf("child %d of %v does not continue range", c, o)
			}
			start = ch.RangeEnd()
		}
		if start != o.RangeEnd() {
			t.Fatalf("children do not partition %v", o)
		}
	}
}

func TestFirstLastDescendant(t *testing.T) {
	o := Root(0).Child(5)
	fd := Octant{X: o.X, Y: o.Y, Z: o.Z, Level: MaxLevel, Tree: o.Tree}
	ld := o.LastDescendant(MaxLevel)
	if fd.MortonKey() != o.MortonKey() {
		t.Fatal("first descendant key mismatch")
	}
	if ld.RangeEnd() != o.RangeEnd() {
		t.Fatal("last descendant end mismatch")
	}
	if !o.IsAncestorOf(fd) || !o.IsAncestorOf(ld) {
		t.Fatal("descendants not contained")
	}
}

func TestSearchContaining(t *testing.T) {
	// Build leaves: children of root, with child 3 refined once more.
	var leaves []Octant
	for i := 0; i < 8; i++ {
		if i == 3 {
			for j := 0; j < 8; j++ {
				leaves = append(leaves, Root(0).Child(3).Child(j))
			}
			continue
		}
		leaves = append(leaves, Root(0).Child(i))
	}
	slices.SortFunc(leaves, Compare)
	q := Root(0).Child(3).Child(5).Child(1) // deeper than mesh
	i := SearchContaining(leaves, q)
	if i < 0 || !leaves[i].Contains(q) {
		t.Fatalf("search failed: %d", i)
	}
	if leaves[i] != Root(0).Child(3).Child(5) {
		t.Fatalf("wrong leaf %v", leaves[i])
	}
	// Exact match.
	q = Root(0).Child(6)
	if i = SearchContaining(leaves, q); leaves[i] != q {
		t.Fatalf("exact search failed")
	}
	// Different tree: not found.
	q = Root(1)
	if i = SearchContaining(leaves, q); i != -1 {
		t.Fatalf("foreign tree found at %d", i)
	}
}

func TestSearchOverlapRange(t *testing.T) {
	var leaves []Octant
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			leaves = append(leaves, Root(0).Child(i).Child(j))
		}
	}
	slices.SortFunc(leaves, Compare)
	q := Root(0).Child(2)
	lo, hi := SearchOverlapRange(leaves, q)
	if hi-lo != 8 {
		t.Fatalf("overlap count = %d, want 8", hi-lo)
	}
	for i := lo; i < hi; i++ {
		if !q.Contains(leaves[i]) {
			t.Fatalf("leaf %v not in %v", leaves[i], q)
		}
	}
	// A fine octant overlaps exactly one leaf.
	q = Root(0).Child(4).Child(4).Child(4)
	lo, hi = SearchOverlapRange(leaves, q)
	if hi-lo != 1 || !leaves[lo].Contains(q) {
		t.Fatalf("fine overlap = [%d,%d)", lo, hi)
	}
}

func TestQuickOverlapsIffRangesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		a, b := randOctant(rng, 8), randOctant(rng, 8)
		ranges := a.MortonKey() < b.RangeEnd() && b.MortonKey() < a.RangeEnd()
		if overlaps := a.Contains(b) || b.Contains(a); overlaps != ranges {
			t.Fatalf("overlap mismatch: %v %v (overlaps=%v ranges=%v)", a, b, overlaps, ranges)
		}
	}
}

func BenchmarkMortonKey(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	octs := make([]Octant, 1024)
	for i := range octs {
		octs[i] = randOctant(rng, MaxLevel)
	}
	b.ResetTimer()
	var sink Key
	for i := 0; i < b.N; i++ {
		sink += octs[i%len(octs)].MortonKey()
	}
	_ = sink
}

func BenchmarkSortOctants(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	base := make([]Octant, 1<<14)
	for i := range base {
		base[i] = randOctant(rng, MaxLevel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := append([]Octant(nil), base...)
		slices.SortFunc(o, Compare)
	}
}
