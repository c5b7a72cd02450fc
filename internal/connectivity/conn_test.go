package connectivity

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/octant"
	"repro/internal/raceflag"
)

func allConns(t *testing.T) map[string]*Conn {
	t.Helper()
	return map[string]*Conn{
		"unitcube": UnitCube(),
		"brick221": Brick(2, 2, 1, false, false, false),
		"torus222": Brick(2, 2, 2, true, true, true),
		"torus1":   Brick(1, 1, 1, true, true, true),
		"brickpx":  Brick(3, 2, 2, true, false, false),
		"six":      SixRotCubes(),
		"shell":    Shell(0.55, 1.0),
		"ball":     Ball(0.55, 1.0),
	}
}

func TestUnitCubeAllBoundary(t *testing.T) {
	c := UnitCube()
	if c.NumTrees() != 1 {
		t.Fatalf("trees = %d", c.NumTrees())
	}
	for f := 0; f < 6; f++ {
		if !c.Face(0, f).Boundary {
			t.Errorf("face %d should be boundary", f)
		}
		if _, ok := c.FaceXform(0, f); ok {
			t.Errorf("face %d has transform", f)
		}
	}
	for e := 0; e < 12; e++ {
		if c.EdgeGroup(0, e) != nil {
			t.Errorf("edge %d has group", e)
		}
	}
	for k := 0; k < 8; k++ {
		if c.CornerGroup(0, k) != nil {
			t.Errorf("corner %d has group", k)
		}
	}
}

func TestBrickFaceConnection(t *testing.T) {
	c := Brick(2, 1, 1, false, false, false)
	fc := c.Face(0, 1)
	if fc.Boundary || fc.Tree != 1 || fc.Face != 0 {
		t.Fatalf("t0f1 connection = %+v", fc)
	}
	if fc.Perm != [4]int8{0, 1, 2, 3} {
		t.Fatalf("aligned bricks must have identity perm, got %v", fc.Perm)
	}
	ft, ok := c.FaceXform(0, 1)
	if !ok {
		t.Fatal("no transform")
	}
	// An exterior octant beyond +x of tree 0 maps to the same position at
	// x=0 in tree 1.
	o := octant.Octant{X: octant.RootLen, Y: octant.RootLen / 2, Z: 0, Level: 1, Tree: 0}
	img := ft.Octant(o)
	want := octant.Octant{X: 0, Y: octant.RootLen / 2, Z: 0, Level: 1, Tree: 1}
	if img != want {
		t.Fatalf("img = %v, want %v", img, want)
	}
}

func TestTorusFullyConnected(t *testing.T) {
	c := Brick(2, 2, 2, true, true, true)
	for tr := int32(0); tr < c.NumTrees(); tr++ {
		for f := 0; f < 6; f++ {
			if c.Face(tr, f).Boundary {
				t.Errorf("torus tree %d face %d is boundary", tr, f)
			}
		}
		for e := 0; e < 12; e++ {
			if g := c.EdgeGroup(tr, e); len(g) != 4 {
				t.Errorf("torus tree %d edge %d group size %d, want 4", tr, e, len(g))
			}
		}
		for k := 0; k < 8; k++ {
			if g := c.CornerGroup(tr, k); len(g) != 8 {
				t.Errorf("torus tree %d corner %d group size %d, want 8", tr, k, len(g))
			}
		}
	}
}

func TestFaceTransformInvolution(t *testing.T) {
	for name, c := range allConns(t) {
		rng := rand.New(rand.NewSource(42))
		for tr := int32(0); tr < c.NumTrees(); tr++ {
			for f := 0; f < 6; f++ {
				ft, ok := c.FaceXform(tr, f)
				if !ok {
					continue
				}
				back, ok := c.FaceXform(ft.Tree, int(ft.Face))
				if !ok {
					t.Fatalf("%s: reverse of t%df%d missing", name, tr, f)
				}
				if back.Tree != tr || int(back.Face) != f {
					t.Fatalf("%s: reverse of t%df%d is t%df%d", name, tr, f, back.Tree, back.Face)
				}
				for i := 0; i < 20; i++ {
					p := [3]int32{rng.Int31n(3*octant.RootLen) - octant.RootLen,
						rng.Int31n(3*octant.RootLen) - octant.RootLen,
						rng.Int31n(3*octant.RootLen) - octant.RootLen}
					if q := back.Point(ft.Point(p)); q != p {
						t.Fatalf("%s t%df%d: roundtrip %v -> %v -> %v", name, tr, f, p, ft.Point(p), q)
					}
				}
			}
		}
	}
}

func TestFaceNeighborReciprocity(t *testing.T) {
	for name, c := range allConns(t) {
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 500; iter++ {
			tr := rng.Int31n(c.NumTrees())
			l := int8(1 + rng.Intn(4))
			mask := ^(octant.Len(l) - 1)
			o := octant.Octant{
				X: rng.Int31n(octant.RootLen) & mask, Y: rng.Int31n(octant.RootLen) & mask,
				Z: rng.Int31n(octant.RootLen) & mask, Level: l, Tree: tr,
			}
			for f := 0; f < 6; f++ {
				for _, n := range c.appendFace(nil, o, f) {
					if !n.Valid() {
						t.Fatalf("%s: invalid face neighbour %v of %v", name, n, o)
					}
					// o must appear among n's face neighbours.
					if !slices.Contains(c.AppendNeighbors(nil, n, Faces), o) {
						t.Fatalf("%s: %v -f%d-> %v not reciprocal", name, o, f, n)
					}
				}
			}
		}
	}
}

func TestEdgeCornerNeighborReciprocity(t *testing.T) {
	for name, c := range allConns(t) {
		rng := rand.New(rand.NewSource(8))
		for iter := 0; iter < 300; iter++ {
			tr := rng.Int31n(c.NumTrees())
			l := int8(1 + rng.Intn(3))
			mask := ^(octant.Len(l) - 1)
			o := octant.Octant{
				X: rng.Int31n(octant.RootLen) & mask, Y: rng.Int31n(octant.RootLen) & mask,
				Z: rng.Int31n(octant.RootLen) & mask, Level: l, Tree: tr,
			}
			neighbors := c.AppendNeighbors(nil, o, FacesEdgesCorners)
			for _, n := range neighbors {
				if !n.Valid() {
					t.Fatalf("%s: invalid neighbour %v of %v", name, n, o)
				}
				found := false
				for _, b := range c.AppendNeighbors(nil, n, FacesEdgesCorners) {
					if b == o {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: neighbour %v of %v not reciprocal", name, n, o)
				}
			}
		}
	}
}

// TestAppendNeighborsScopes: each scope of AppendNeighbors yields the face,
// then edge, then corner neighbour lists concatenated in index order, and
// into a reused buffer it allocates nothing.
func TestAppendNeighborsScopes(t *testing.T) {
	for name, c := range allConns(t) {
		rng := rand.New(rand.NewSource(9))
		buf := make([]octant.Octant, 0, 64)
		for iter := 0; iter < 200; iter++ {
			l := int8(1 + rng.Intn(3))
			mask := ^(octant.Len(l) - 1)
			o := octant.Octant{
				X: rng.Int31n(octant.RootLen) & mask, Y: rng.Int31n(octant.RootLen) & mask,
				Z: rng.Int31n(octant.RootLen) & mask, Level: l, Tree: rng.Int31n(c.NumTrees()),
			}
			var want []octant.Octant
			for s := Faces; s <= FacesEdgesCorners; s++ {
				switch s {
				case Faces:
					for f := 0; f < octant.NumFaces; f++ {
						want = c.appendFace(want, o, f)
					}
				case FacesEdges:
					for e := 0; e < octant.NumEdges; e++ {
						want = c.appendEdge(want, o, e)
					}
				case FacesEdgesCorners:
					for k := 0; k < octant.NumCorners; k++ {
						want = c.appendCorner(want, o, k)
					}
				}
				buf = c.AppendNeighbors(buf[:0], o, s)
				if !slices.Equal(buf, want) {
					t.Fatalf("%s scope %d of %v: %v, want %v", name, s, o, buf, want)
				}
			}
			if raceflag.Enabled {
				continue
			}
			if n := testing.AllocsPerRun(5, func() { buf = c.AppendNeighbors(buf[:0], o, FacesEdgesCorners) }); n != 0 {
				t.Fatalf("%s: AppendNeighbors of %v into a reused buffer allocates %v times", name, o, n)
			}
		}
	}
}

func TestSixRotCubesAxisEdge(t *testing.T) {
	c := SixRotCubes()
	if c.NumTrees() != 6 {
		t.Fatalf("trees = %d", c.NumTrees())
	}
	// The center axis is edge 8 (corners 0 and 4) of each of the five fan
	// cubes: one macro-edge shared by five trees, as in Figure 1.
	g := c.EdgeGroup(0, 8)
	if len(g) != 5 {
		t.Fatalf("axis edge group size = %d, want 5", len(g))
	}
	seen := map[int32]bool{}
	for _, m := range g {
		seen[m.Tree] = true
	}
	for tr := int32(0); tr < 5; tr++ {
		if !seen[tr] {
			t.Errorf("tree %d missing from axis edge group", tr)
		}
	}
	// Each fan cube connects to its two fan neighbours and (cube 0) to the
	// attached sixth cube.
	nonBoundary := 0
	for f := 0; f < 6; f++ {
		if !c.Face(0, f).Boundary {
			nonBoundary++
		}
	}
	if nonBoundary != 3 {
		t.Errorf("cube 0 has %d connected faces, want 3", nonBoundary)
	}
}

func TestShellStructure(t *testing.T) {
	c := Shell(0.55, 1.0)
	if c.NumTrees() != 24 {
		t.Fatalf("trees = %d", c.NumTrees())
	}
	for tr := int32(0); tr < 24; tr++ {
		// Radial faces (local -z, +z) are boundaries; the four lateral faces
		// connect.
		for f := 0; f < 6; f++ {
			isBoundary := c.Face(tr, f).Boundary
			wantBoundary := f == 4 || f == 5
			if isBoundary != wantBoundary {
				t.Errorf("shell tree %d face %d boundary = %v, want %v", tr, f, isBoundary, wantBoundary)
			}
		}
		// Every radial edge is shared by 3 or 4 trees (cube corners by 3,
		// face centers and edge midpoints by 4).
		for e := 8; e < 12; e++ {
			if g := c.EdgeGroup(tr, e); len(g) != 3 && len(g) != 4 {
				t.Errorf("shell tree %d radial edge %d group size %d", tr, e, len(g))
			}
		}
	}
}

func TestBallStructure(t *testing.T) {
	c := Ball(0.5, 1.0)
	if c.NumTrees() != 7 {
		t.Fatalf("trees = %d", c.NumTrees())
	}
	// Center cube: all faces connected; caps: outer face boundary.
	for f := 0; f < 6; f++ {
		if c.Face(0, f).Boundary {
			t.Errorf("center cube face %d boundary", f)
		}
	}
	for tr := int32(1); tr < 7; tr++ {
		if !c.Face(tr, 5).Boundary {
			t.Errorf("cap %d outer face connected", tr)
		}
		if c.Face(tr, 4).Boundary {
			t.Errorf("cap %d inner face boundary", tr)
		}
		if c.Face(tr, 4).Tree != 0 {
			t.Errorf("cap %d inner neighbour = %d", tr, c.Face(tr, 4).Tree)
		}
	}
	// Cube edges are shared by the cube and two caps.
	for e := 0; e < 12; e++ {
		if g := c.EdgeGroup(0, e); len(g) != 3 {
			t.Errorf("ball cube edge %d group size %d, want 3", e, len(g))
		}
	}
}

func TestPointImagesConsistency(t *testing.T) {
	for name, c := range allConns(t) {
		rng := rand.New(rand.NewSource(9))
		for iter := 0; iter < 400; iter++ {
			tr := rng.Int31n(c.NumTrees())
			// Random lattice point, biased to boundaries.
			coord := func() int32 {
				switch rng.Intn(4) {
				case 0:
					return 0
				case 1:
					return octant.RootLen
				default:
					return rng.Int31n(2) * octant.RootLen / 2 * rng.Int31n(2) // 0 or quarter/half points
				}
			}
			p := [3]int32{coord(), coord(), coord()}
			images := c.AppendPointImages(nil, tr, p, 1)
			if len(images) == 0 {
				t.Fatalf("%s: no images", name)
			}
			canon := images[0]
			for _, im := range images {
				images2 := c.AppendPointImages(nil, im.Tree, [3]int32{im.X, im.Y, im.Z}, 1)
				if len(images2) != len(images) {
					t.Fatalf("%s: image sets differ for %v vs %v: %v vs %v", name, p, im, images, images2)
				}
				for i := range images2 {
					if images2[i] != images[i] {
						t.Fatalf("%s: image sets differ: %v vs %v", name, images, images2)
					}
				}
				if images2[0] != canon {
					t.Fatalf("%s: canonical not invariant", name)
				}
			}
		}
	}
}

func TestPointImagesCountsTorus(t *testing.T) {
	c := Brick(2, 2, 2, true, true, true)
	// A corner lattice point of the torus is shared by all 8 trees.
	images := c.AppendPointImages(nil, 0, [3]int32{0, 0, 0}, 1)
	if len(images) != 8 {
		t.Fatalf("torus corner images = %d, want 8", len(images))
	}
	// A face-interior point has exactly 2 images.
	images = c.AppendPointImages(nil, 0, [3]int32{0, octant.RootLen / 2, octant.RootLen / 4}, 1)
	if len(images) != 2 {
		t.Fatalf("face point images = %d, want 2: %v", len(images), images)
	}
	// An interior point has 1 image.
	images = c.AppendPointImages(nil, 0, [3]int32{5, 6, 7}, 1)
	if len(images) != 1 {
		t.Fatalf("interior point images = %d", len(images))
	}
}

// TestPaperFig3Transform reproduces the example of Figure 3: two octrees k
// and k' connecting through face 2 of k and face 4 of k' with non-aligned
// coordinate systems, where the red octant of size 1/4 has coordinates
// (2,-1,1) with respect to k and (1,1,0) with respect to k' (in units of
// quarter root length).
func TestPaperFig3Transform(t *testing.T) {
	h := octant.RootLen / 4
	src := octant.Octant{X: 2 * h, Y: -h, Z: h, Level: 2, Tree: 0}
	want := octant.Octant{X: h, Y: h, Z: 0, Level: 2, Tree: 1}

	// Tree 0's face 2 (-y) corners {0,1,4,5} carry ids {0,1,4,5}. Tree 1's
	// face 4 (-z) corners {0,1,2,3} carry those ids in one of the rotations;
	// search the rotation that realizes the paper's coordinates.
	found := false
	base := [4]int64{0, 1, 4, 5} // ids of k's face-2 corners in face z-order
	for perm := 0; perm < 24; perm++ {
		idx := permutation4(perm)
		var ttv [][8]int64
		ttv = append(ttv, [8]int64{0, 1, 2, 3, 4, 5, 6, 7})
		t1 := [8]int64{0, 0, 0, 0, 8, 9, 10, 11}
		for i := 0; i < 4; i++ {
			t1[i] = base[idx[i]]
		}
		ttv = append(ttv, t1)
		c, err := FromVertices(ttv, nil)
		if err != nil {
			continue // orientation-reversing or non-affine pairing
		}
		ft, ok := c.FaceXform(0, 2)
		if !ok || ft.Tree != 1 || ft.Face != 4 {
			continue
		}
		if got := ft.Octant(src); got == want {
			found = true
			// The reverse transform must take the octant back (its corner
			// point may map to a different corner of the cube under flips).
			back, _ := c.FaceXform(1, 4)
			if got2 := back.Octant(want); got2 != src {
				t.Fatalf("reverse of Fig 3 transform wrong: %v", got2)
			}
		}
	}
	if !found {
		t.Fatal("no face-2/face-4 rotation realizes the Figure 3 coordinates")
	}
}

func permutation4(n int) [4]int {
	items := []int{0, 1, 2, 3}
	var out [4]int
	for i := 0; i < 4; i++ {
		k := n % (4 - i)
		n /= 4 - i
		out[i] = items[k]
		items = append(items[:k], items[k+1:]...)
	}
	return out
}

func TestGeometryShellRadii(t *testing.T) {
	c := Shell(0.55, 1.0)
	g := c.Geometry()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		tr := rng.Int31n(24)
		xi := [3]float64{rng.Float64(), rng.Float64(), 0}
		p := g.X(tr, xi)
		r := radius(p)
		if !approx(r, 0.55, 1e-12) {
			t.Fatalf("inner surface radius = %v", r)
		}
		xi[2] = 1
		p = g.X(tr, xi)
		if r = radius(p); !approx(r, 1.0, 1e-12) {
			t.Fatalf("outer surface radius = %v", r)
		}
	}
	// Shared macro vertices coincide physically across trees.
	verts := c.Vertices()
	for tr := int32(0); tr < 24; tr++ {
		tv := c.TreeToVertex(tr)
		for k := 0; k < 8; k++ {
			xi := [3]float64{float64(k & 1), float64(k >> 1 & 1), float64(k >> 2 & 1)}
			p := g.X(tr, xi)
			q := verts[tv[k]]
			for a := 0; a < 3; a++ {
				if !approx(p[a], q[a], 1e-9) {
					t.Fatalf("tree %d corner %d: geometry %v != vertex %v", tr, k, p, q)
				}
			}
		}
	}
}

func TestGeometryBallContinuity(t *testing.T) {
	c := Ball(0.5, 1.0)
	g := c.Geometry()
	// Cap inner faces must coincide with the cube faces they attach to:
	// check the shared corner vertices.
	verts := c.Vertices()
	for tr := int32(0); tr < 7; tr++ {
		tv := c.TreeToVertex(tr)
		for k := 0; k < 8; k++ {
			xi := [3]float64{float64(k & 1), float64(k >> 1 & 1), float64(k >> 2 & 1)}
			p := g.X(tr, xi)
			q := verts[tv[k]]
			for a := 0; a < 3; a++ {
				if !approx(p[a], q[a], 1e-9) {
					t.Fatalf("ball tree %d corner %d: %v != %v", tr, k, p, q)
				}
			}
		}
	}
}

func radius(p [3]float64) float64 {
	return math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
