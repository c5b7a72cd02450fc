package connectivity

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/octant"
)

// TestQuickFaceTransformCompositionIdentity: crossing a face and coming
// back is the identity on octants, for random octants on random built-in
// connectivities.
func TestQuickFaceTransformCompositionIdentity(t *testing.T) {
	conns := []*Conn{
		Brick(2, 2, 2, true, true, true),
		SixRotCubes(),
		Shell(0.55, 1.0),
		Ball(0.4, 1.0),
	}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := conns[rng.Intn(len(conns))]
		tr := rng.Int31n(c.NumTrees())
		f := rng.Intn(6)
		ft, ok := c.FaceXform(tr, f)
		if !ok {
			return true
		}
		back, ok := c.FaceXform(ft.Tree, int(ft.Face))
		if !ok {
			return false
		}
		l := int8(rng.Intn(6))
		mask := ^(octant.Len(l) - 1)
		o := octant.Octant{
			X: rng.Int31n(octant.RootLen) & mask, Y: rng.Int31n(octant.RootLen) & mask,
			Z: rng.Int31n(octant.RootLen) & mask, Level: l, Tree: tr,
		}
		return back.Octant(ft.Octant(o)) == o
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickTouchingSymmetric: the exact contact predicate is symmetric.
func TestQuickTouchingSymmetric(t *testing.T) {
	conns := []*Conn{
		Brick(2, 1, 1, false, false, false),
		SixRotCubes(),
		Shell(0.55, 1.0),
	}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := conns[rng.Intn(len(conns))]
		mk := func() octant.Octant {
			l := int8(1 + rng.Intn(3))
			mask := ^(octant.Len(l) - 1)
			return octant.Octant{
				X: rng.Int31n(octant.RootLen) & mask, Y: rng.Int31n(octant.RootLen) & mask,
				Z: rng.Int31n(octant.RootLen) & mask, Level: l, Tree: rng.Int31n(c.NumTrees()),
			}
		}
		a, b := mk(), mk()
		return c.Touching(a, b) == c.Touching(b, a)
	}, &quick.Config{MaxCount: 800})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickNeighborsTouch: every same-size neighbour image actually touches
// the original leaf under the exact contact predicate.
func TestQuickNeighborsTouch(t *testing.T) {
	conns := []*Conn{
		SixRotCubes(),
		Shell(0.55, 1.0),
		Brick(2, 2, 2, true, true, true),
	}
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := conns[rng.Intn(len(conns))]
		l := int8(1 + rng.Intn(3))
		mask := ^(octant.Len(l) - 1)
		o := octant.Octant{
			X: rng.Int31n(octant.RootLen) & mask, Y: rng.Int31n(octant.RootLen) & mask,
			Z: rng.Int31n(octant.RootLen) & mask, Level: l, Tree: rng.Int31n(c.NumTrees()),
		}
		for _, n := range c.AppendNeighbors(nil, o, FacesEdgesCorners) {
			if !c.Touching(o, n) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalIdempotent: canonicalization is idempotent and its
// image set is closed.
func TestQuickCanonicalIdempotent(t *testing.T) {
	c := Shell(0.55, 1.0)
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := rng.Int31n(c.NumTrees())
		coord := func() int32 {
			switch rng.Intn(3) {
			case 0:
				return 0
			case 1:
				return octant.RootLen
			default:
				return (rng.Int31n(15) + 1) * (octant.RootLen / 16)
			}
		}
		p := [3]int32{coord(), coord(), coord()}
		can := c.AppendPointImages(nil, tr, p, 1)[0]
		again := c.AppendPointImages(nil, can.Tree, [3]int32{can.X, can.Y, can.Z}, 1)[0]
		return can == again
	}, &quick.Config{MaxCount: 600})
	if err != nil {
		t.Fatal(err)
	}
}
