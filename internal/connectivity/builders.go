package connectivity

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/octant"
)

// UnitCube returns the one-tree connectivity of the unit cube.
func UnitCube() *Conn {
	ttv := [][8]int64{{0, 1, 2, 3, 4, 5, 6, 7}}
	pos := make([][3]float64, 8)
	for c := 0; c < 8; c++ {
		pos[c] = [3]float64{float64(c & 1), float64(c >> 1 & 1), float64(c >> 2 & 1)}
	}
	return MustFromVertices(ttv, pos)
}

// Brick returns an mx x my x mz arrangement of unit-cube trees, optionally
// periodic along each axis. All orientations are aligned (identity corner
// permutations). Periodicity works for any dimensions, including a single
// all-periodic tree (a 3-torus whose faces connect to themselves), so the
// connectivity is constructed explicitly rather than by vertex matching.
func Brick(mx, my, mz int, px, py, pz bool) *Conn {
	dims := [3]int{mx, my, mz}
	per := [3]bool{px, py, pz}
	for a := 0; a < 3; a++ {
		if dims[a] < 1 {
			panic("connectivity: brick dimensions must be >= 1")
		}
	}
	n := int32(mx * my * mz)
	tid := func(i, j, k int) int32 {
		return int32(i + mx*(j+my*k))
	}
	c := &Conn{
		numTrees:  n,
		faces:     make([][6]FaceConn, n),
		faceXform: make([][6]FaceTransform, n),
		edgeGroup: make([][12]int32, n),
		cornGroup: make([][8]int32, n),
	}
	for t := range c.edgeGroup {
		for e := range c.edgeGroup[t] {
			c.edgeGroup[t][e] = -1
		}
		for k := range c.cornGroup[t] {
			c.cornGroup[t][k] = -1
		}
	}

	// Unwrapped vertex ids for geometry and visualization.
	vd := [3]int{mx + 1, my + 1, mz + 1}
	vid := func(i, j, k int) int64 { return int64(i + vd[0]*(j+vd[1]*k)) }
	pos := make([][3]float64, vd[0]*vd[1]*vd[2])
	for k := 0; k <= mz; k++ {
		for j := 0; j <= my; j++ {
			for i := 0; i <= mx; i++ {
				pos[vid(i, j, k)] = [3]float64{float64(i), float64(j), float64(k)}
			}
		}
	}
	c.vertices = pos
	c.treeToVertex = make([][8]int64, n)

	// cellAt resolves a (possibly out-of-range) cell index with wrapping;
	// ok is false outside a non-periodic boundary.
	cellAt := func(ci [3]int) (t int32, ok bool) {
		for a := 0; a < 3; a++ {
			if per[a] {
				ci[a] = ((ci[a] % dims[a]) + dims[a]) % dims[a]
			} else if ci[a] < 0 || ci[a] >= dims[a] {
				return 0, false
			}
		}
		return tid(ci[0], ci[1], ci[2]), true
	}

	type edgeKey struct{ axis, i, j, k int } // lattice edge: lowest cell position + axis
	edgeMap := map[edgeKey][]EdgeMember{}
	type cornKey struct{ i, j, k int }
	cornMap := map[cornKey][]CornerMember{}
	wrapPoint := func(p [3]int) [3]int {
		for a := 0; a < 3; a++ {
			if per[a] {
				p[a] = ((p[a] % dims[a]) + dims[a]) % dims[a]
			}
		}
		return p
	}

	for k := 0; k < mz; k++ {
		for j := 0; j < my; j++ {
			for i := 0; i < mx; i++ {
				t := tid(i, j, k)
				for cc := 0; cc < 8; cc++ {
					c.treeToVertex[t][cc] = vid(i+cc&1, j+cc>>1&1, k+cc>>2&1)
				}
				// Faces.
				cell := [3]int{i, j, k}
				for f := 0; f < 6; f++ {
					nb := cell
					ax := octant.FaceAxis(f)
					nb[ax] += int(octant.FaceSign(f))
					nt, ok := cellAt(nb)
					if !ok {
						c.faces[t][f] = FaceConn{Tree: t, Face: int8(f), Boundary: true}
						continue
					}
					fc := FaceConn{Tree: nt, Face: int8(f ^ 1), Perm: [4]int8{0, 1, 2, 3}}
					c.faces[t][f] = fc
					ft, err := buildFaceTransform(t, int8(f), fc)
					if err != nil {
						panic(err)
					}
					c.faceXform[t][f] = ft
				}
				// Edge incidences: tree edge e along axis a at transverse
				// bits (b0, b1) touches the lattice edge at the matching
				// lattice position.
				for e := 0; e < 12; e++ {
					ax := octant.EdgeAxis(e)
					t0, t1 := edgeTransverse(int8(e))
					p := [3]int{i, j, k}
					if e&1 != 0 {
						p[t0]++
					}
					if e&2 != 0 {
						p[t1]++
					}
					p = wrapPoint(p)
					key := edgeKey{ax, p[0], p[1], p[2]}
					edgeMap[key] = append(edgeMap[key], EdgeMember{Tree: t, Edge: int8(e)})
				}
				// Corner incidences.
				for cc := 0; cc < 8; cc++ {
					p := wrapPoint([3]int{i + cc&1, j + cc>>1&1, k + cc>>2&1})
					key := cornKey{p[0], p[1], p[2]}
					cornMap[key] = append(cornMap[key], CornerMember{Tree: t, Corner: int8(cc)})
				}
			}
		}
	}

	// Deterministic group order.
	var eKeys []edgeKey
	for k := range edgeMap {
		eKeys = append(eKeys, k)
	}
	sort.Slice(eKeys, func(a, b int) bool {
		ka, kb := eKeys[a], eKeys[b]
		if ka.axis != kb.axis {
			return ka.axis < kb.axis
		}
		if ka.k != kb.k {
			return ka.k < kb.k
		}
		if ka.j != kb.j {
			return ka.j < kb.j
		}
		return ka.i < kb.i
	})
	for _, key := range eKeys {
		members := edgeMap[key]
		if len(members) < 2 {
			continue
		}
		g := int32(len(c.edgeGroups))
		for _, m := range members {
			c.edgeGroup[m.Tree][m.Edge] = g
		}
		c.edgeGroups = append(c.edgeGroups, members)
	}
	var cKeys []cornKey
	for k := range cornMap {
		cKeys = append(cKeys, k)
	}
	sort.Slice(cKeys, func(a, b int) bool {
		ka, kb := cKeys[a], cKeys[b]
		if ka.k != kb.k {
			return ka.k < kb.k
		}
		if ka.j != kb.j {
			return ka.j < kb.j
		}
		return ka.i < kb.i
	})
	for _, key := range cKeys {
		members := cornMap[key]
		if len(members) < 2 {
			continue
		}
		g := int32(len(c.cornGroups))
		for _, m := range members {
			c.cornGroup[m.Tree][m.Corner] = g
		}
		c.cornGroups = append(c.cornGroups, members)
	}

	c.geom = &LinearGeometry{Vertices: pos, TreeToVertex: c.treeToVertex}
	return c
}

// SixRotCubes reproduces the forest of Figure 1 (bottom) of the paper: six
// octrees whose coordinate systems are rotated with respect to one another,
// with five octrees connecting through a common center axis (a macro-edge
// shared by five trees), and a sixth attached to the outside.
func SixRotCubes() *Conn {
	const (
		vA  = 0 // bottom center
		vAt = 1 // top center
		vP  = 2 // vP+i:   bottom ray points, i in [0,5)
		vPt = 7
		vQ  = 12 // outer corners
		vQt = 17
		vS  = 22 // four extra vertices of the sixth cube
	)
	pos := make([][3]float64, 26)
	pos[vA] = [3]float64{0, 0, 0}
	pos[vAt] = [3]float64{0, 0, 2}
	ray := func(i int) [3]float64 {
		th := 2 * math.Pi * float64(i%5) / 5
		return [3]float64{2 * math.Cos(th), 2 * math.Sin(th), 0}
	}
	for i := 0; i < 5; i++ {
		r := ray(i)
		rn := ray(i + 1)
		pos[vP+i] = r
		pos[vPt+i] = [3]float64{r[0], r[1], 2}
		pos[vQ+i] = [3]float64{r[0] + rn[0], r[1] + rn[1], 0}
		pos[vQt+i] = [3]float64{r[0] + rn[0], r[1] + rn[1], 2}
	}
	// Sixth cube beyond cube 0's +x face {P0, Q0, P0', Q0'}; its local +z
	// face is the shared one, so its frame is rotated relative to cube 0.
	d := [3]float64{2.2, 1.6, 0}
	for s, base := range []int{vP, vPt, vQ, vQt} {
		p := pos[base]
		pos[vS+s] = [3]float64{p[0] + d[0], p[1] + d[1], p[2] + d[2]}
	}

	ttv := make([][8]int64, 6)
	for i := 0; i < 5; i++ {
		in := (i + 1) % 5
		ttv[i] = [8]int64{
			vA, int64(vP + i), int64(vP + in), int64(vQ + i),
			vAt, int64(vPt + i), int64(vPt + in), int64(vQt + i),
		}
	}
	ttv[5] = [8]int64{
		vS + 0, vS + 1, vS + 2, vS + 3, // S_P0, S_P0', S_Q0, S_Q0'
		vP + 0, vPt + 0, vQ + 0, vQt + 0, // P0, P0', Q0, Q0'
	}
	return MustFromVertices(ttv, pos)
}

// Shell returns the 24-tree spherical-shell connectivity used throughout the
// paper's experiments: six cubed-sphere caps, each split into four trees
// (tree = 4*face + patch), with an analytic equiangular shell geometry of
// inner radius r1 and outer radius r2.
func Shell(r1, r2 float64) *Conn {
	if !(0 < r1 && r1 < r2) {
		panic("connectivity: shell radii must satisfy 0 < r1 < r2")
	}
	// Surface vertex ids come from the 26 lattice points of the cube surface
	// (coordinates in {-1,0,1}^3, excluding the center), one per radial layer.
	sid := func(p [3]int, layer int) int64 {
		return int64(layer*27 + (p[0]+1)*9 + (p[1]+1)*3 + (p[2] + 1))
	}
	iround := func(v float64) int { return int(math.Round(v)) }
	var ttv [][8]int64
	for face := 0; face < 6; face++ {
		fr := cubeFrames[face]
		for patch := 0; patch < 4; patch++ {
			var tv [8]int64
			for c := 0; c < 8; c++ {
				gi := patch&1 + c&1
				gj := patch>>1&1 + c>>1&1
				layer := c >> 2 & 1
				var p [3]int
				for a := 0; a < 3; a++ {
					p[a] = iround(fr.n[a]) + (gi-1)*iround(fr.u[a]) + (gj-1)*iround(fr.v[a])
				}
				tv[c] = sid(p, layer)
			}
			ttv = append(ttv, tv)
		}
	}
	pos := make([][3]float64, 54)
	for x := -1; x <= 1; x++ {
		for y := -1; y <= 1; y++ {
			for z := -1; z <= 1; z++ {
				if x == 0 && y == 0 && z == 0 {
					continue
				}
				dir := normalize([3]float64{float64(x), float64(y), float64(z)})
				pos[sid([3]int{x, y, z}, 0)] = scale(r1, dir)
				pos[sid([3]int{x, y, z}, 1)] = scale(r2, dir)
			}
		}
	}
	c, err := FromVertices(ttv, pos)
	if err != nil {
		panic(fmt.Sprintf("connectivity: shell construction failed: %v", err))
	}
	c.SetGeometry(&ShellGeometry{R1: r1, R2: r2})
	return c
}

// Ball returns the 7-tree solid-ball connectivity (center cube plus six
// radial caps), used for the full-earth seismic wave propagation runs. Tree
// 0 is the center cube; tree 1+f is the cap over cube face f.
func Ball(rin, rout float64) *Conn {
	if !(0 < rin && rin < rout) {
		panic("connectivity: ball radii must satisfy 0 < rin < rout")
	}
	iround := func(v float64) int { return int(math.Round(v)) }
	ttv := make([][8]int64, 7)
	ttv[0] = [8]int64{0, 1, 2, 3, 4, 5, 6, 7}
	for face := 0; face < 6; face++ {
		fr := cubeFrames[face]
		var tv [8]int64
		for c := 0; c < 8; c++ {
			i := c & 1
			j := c >> 1 & 1
			layer := c >> 2 & 1
			var p [3]int
			for a := 0; a < 3; a++ {
				p[a] = iround(fr.n[a]) + (2*i-1)*iround(fr.u[a]) + (2*j-1)*iround(fr.v[a])
			}
			ci := 0
			if p[0] > 0 {
				ci |= 1
			}
			if p[1] > 0 {
				ci |= 2
			}
			if p[2] > 0 {
				ci |= 4
			}
			tv[c] = int64(8*layer + ci)
		}
		ttv[1+face] = tv
	}
	c := rin / math.Sqrt(3)
	pos := make([][3]float64, 16)
	for ci := 0; ci < 8; ci++ {
		sgn := func(b int) float64 {
			if b != 0 {
				return 1
			}
			return -1
		}
		dir := [3]float64{sgn(ci & 1), sgn(ci & 2), sgn(ci & 4)}
		pos[ci] = scale(c, dir)
		pos[8+ci] = scale(rout, normalize(dir))
	}
	conn, err := FromVertices(ttv, pos)
	if err != nil {
		panic(fmt.Sprintf("connectivity: ball construction failed: %v", err))
	}
	conn.SetGeometry(&BallGeometry{Rin: rin, Rout: rout})
	return conn
}
