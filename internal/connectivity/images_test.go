package connectivity

import (
	"slices"
	"testing"

	"repro/internal/octant"
	"repro/internal/raceflag"
)

// referencePointImages is the image enumeration as it was before the
// append form, kept verbatim as the oracle of TestAppendPointImagesMatchesReference:
// a fresh slice per call and per macro-edge.
func referencePointImages(c *Conn, t int32, p [3]int32, scale int32) []TreePoint {
	lim := scale * octant.RootLen
	self := TreePoint{Tree: t, X: p[0], Y: p[1], Z: p[2]}
	images := append(make([]TreePoint, 0, 8), self)

	var onLow, onHigh [3]bool
	nb := 0
	for i := 0; i < 3; i++ {
		v := p[i]
		if v == 0 {
			onLow[i] = true
			nb++
		} else if v == lim {
			onHigh[i] = true
			nb++
		}
	}
	if nb == 0 {
		return images
	}
	for f := 0; f < 6; f++ {
		ax := octant.FaceAxis(f)
		if (f&1 == 0 && !onLow[ax]) || (f&1 == 1 && !onHigh[ax]) {
			continue
		}
		if ft, ok := c.FaceXform(t, f); ok {
			q := ft.PointScaled(p, scale)
			images = append(images, TreePoint{Tree: ft.Tree, X: q[0], Y: q[1], Z: q[2]})
		}
	}
	if nb >= 2 {
		for e := 0; e < 12; e++ {
			t0, t1 := edgeTransverse(int8(e))
			want0 := e&1 != 0
			want1 := e&2 != 0
			if (want0 && !onHigh[t0]) || (!want0 && !onLow[t0]) ||
				(want1 && !onHigh[t1]) || (!want1 && !onLow[t1]) {
				continue
			}
			images = append(images, referenceEdgePointImages(c, t, int8(e), p, lim)...)
		}
	}
	if nb == 3 {
		kt := 0
		for i := 0; i < 3; i++ {
			if onHigh[i] {
				kt |= 1 << i
			}
		}
		for _, m := range c.CornerGroup(t, kt) {
			q := cornerCoord(int(m.Corner))
			images = append(images, TreePoint{
				Tree: m.Tree,
				X:    q[0] / octant.RootLen * lim,
				Y:    q[1] / octant.RootLen * lim,
				Z:    q[2] / octant.RootLen * lim,
			})
		}
	}
	return dedupPoints(images)
}

func referenceEdgePointImages(c *Conn, t int32, e int8, p [3]int32, lim int32) []TreePoint {
	group := c.EdgeGroup(t, int(e))
	var selfFlip bool
	found := false
	for _, m := range group {
		if m.Tree == t && m.Edge == e {
			selfFlip = m.Flip
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	w := [3]int32{p[0], p[1], p[2]}[octant.EdgeAxis(int(e))]
	var out []TreePoint
	for _, m := range group {
		wm := w
		if selfFlip != m.Flip {
			wm = lim - w
		}
		var q [3]int32
		q[octant.EdgeAxis(int(m.Edge))] = wm
		t0, t1 := edgeTransverse(m.Edge)
		if int(m.Edge)&1 != 0 {
			q[t0] = lim
		}
		if int(m.Edge)&2 != 0 {
			q[t1] = lim
		}
		out = append(out, TreePoint{Tree: m.Tree, X: q[0], Y: q[1], Z: q[2]})
	}
	return out
}

// TestAppendPointImagesMatchesReference: on every tree-boundary point of a
// lattice of 4·scale steps per tree edge, at scales 1 and 3, on six cubes
// meeting rotated, the 24-tree shell and a periodic brick whose trees
// neighbour themselves, AppendPointImages appends what the former
// PointImagesScaled returned, after any prefix already in dst, and with a
// warm buffer allocates nothing.
func TestAppendPointImagesMatchesReference(t *testing.T) {
	conns := []struct {
		name string
		conn *Conn
	}{
		{"six", SixRotCubes()},
		{"shell", Shell(0.55, 1)},
		{"periodic", Brick(2, 1, 1, true, true, true)},
	}
	for _, cn := range conns {
		c := cn.conn
		for _, scale := range []int32{1, 3} {
			n := 4 * scale
			step := scale * octant.RootLen / n
			var points []TreePoint
			for tr := int32(0); tr < c.NumTrees(); tr++ {
				for k := int32(0); k <= n; k++ {
					for j := int32(0); j <= n; j++ {
						for i := int32(0); i <= n; i++ {
							if p := (TreePoint{Tree: tr, X: i * step, Y: j * step, Z: k * step}); i%n == 0 || j%n == 0 || k%n == 0 {
								points = append(points, p)
							}
						}
					}
				}
			}
			prefix := TreePoint{Tree: -1}
			buf := make([]TreePoint, 0, 64)
			for _, p := range points {
				want := referencePointImages(c, p.Tree, [3]int32{p.X, p.Y, p.Z}, scale)
				buf = c.AppendPointImages(append(buf[:0], prefix), p.Tree, [3]int32{p.X, p.Y, p.Z}, scale)
				if buf[0] != prefix || !slices.Equal(buf[1:], want) {
					t.Fatalf("%s scale %d point %+v: appended %v, want %v after %v", cn.name, scale, p, buf, want, prefix)
				}
			}
			if raceflag.Enabled {
				continue
			}
			allocs := testing.AllocsPerRun(3, func() {
				for _, p := range points {
					buf = c.AppendPointImages(buf[:0], p.Tree, [3]int32{p.X, p.Y, p.Z}, scale)
				}
			})
			if allocs != 0 {
				t.Errorf("%s scale %d: %v allocations over %d points into a warm buffer", cn.name, scale, allocs, len(points))
			}
		}
	}
}
