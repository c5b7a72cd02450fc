// Package octant implements the integer arithmetic of linear octrees: octant
// coordinates, Morton (z-order) keys, parent/child/sibling relations, and
// face/edge/corner neighbour computations.
//
// Conventions follow p8est: an octree has MaxLevel = 19 refinement levels;
// the root octant spans the coordinate cube [0, RootLen)^3 with
// RootLen = 2^19. An octant of level l has side length 2^(19-l) and
// coordinates that are multiples of its length. All topology is computed in
// exact integer arithmetic — no floating point is involved, which (as the
// paper stresses) rules out topological errors due to roundoff.
//
// Neighbour computations may produce exterior octants whose coordinates lie
// outside [0, RootLen); these are resolved into neighbouring trees by
// package connectivity.
package octant

import "fmt"

const (
	// MaxLevel is the deepest refinement level supported (as in p8est).
	MaxLevel = 19
	// RootLen is the integer side length of the root octant.
	RootLen = int32(1) << MaxLevel
	// NumChildren is the number of children of a refined octant.
	NumChildren = 8
	// NumFaces is the number of faces of an octant.
	NumFaces = 6
	// NumEdges is the number of edges of an octant.
	NumEdges = 12
	// NumCorners is the number of corners of an octant.
	NumCorners = 8
)

// Octant is one node of an octree, identified by the coordinates of its
// lowest corner, its refinement level, and the tree it belongs to. The
// zero value is the root octant of tree 0.
type Octant struct {
	X, Y, Z int32
	Level   int8
	Tree    int32
}

// Len returns the integer side length of an octant at the given level.
func Len(level int8) int32 {
	return int32(1) << (MaxLevel - uint(level))
}

// Root returns the root octant of the given tree.
func Root(tree int32) Octant {
	return Octant{Tree: tree}
}

// Len returns the integer side length of o.
func (o Octant) Len() int32 { return Len(o.Level) }

// String renders the octant for diagnostics.
func (o Octant) String() string {
	return fmt.Sprintf("oct{t%d l%d (%d,%d,%d)}", o.Tree, o.Level, o.X, o.Y, o.Z)
}

// Inside reports whether o lies inside its tree's root domain.
func (o Octant) Inside() bool {
	return o.X >= 0 && o.X < RootLen &&
		o.Y >= 0 && o.Y < RootLen &&
		o.Z >= 0 && o.Z < RootLen
}

// Valid reports whether o is a well-formed interior octant: level in range
// and coordinates aligned to the level and inside the root domain.
func (o Octant) Valid() bool {
	if o.Level < 0 || o.Level > MaxLevel {
		return false
	}
	mask := o.Len() - 1
	return o.Inside() && o.X&mask == 0 && o.Y&mask == 0 && o.Z&mask == 0
}

// Child returns the i-th child (z-order, i in [0,8)) of o.
func (o Octant) Child(i int) Octant {
	h := o.Len() >> 1
	return Octant{
		X:     o.X + int32(i&1)*h,
		Y:     o.Y + int32((i>>1)&1)*h,
		Z:     o.Z + int32((i>>2)&1)*h,
		Level: o.Level + 1,
		Tree:  o.Tree,
	}
}

// Children returns all eight children of o in z-order.
func (o Octant) Children() [8]Octant {
	var c [8]Octant
	for i := 0; i < 8; i++ {
		c[i] = o.Child(i)
	}
	return c
}

// Parent returns the parent of o. It panics on a root octant.
func (o Octant) Parent() Octant {
	if o.Level == 0 {
		panic("octant: root has no parent")
	}
	mask := ^(Len(o.Level-1) - 1)
	return Octant{X: o.X & mask, Y: o.Y & mask, Z: o.Z & mask, Level: o.Level - 1, Tree: o.Tree}
}

// ChildID returns which child of its parent o is (z-order, in [0,8)).
func (o Octant) ChildID() int {
	if o.Level == 0 {
		return 0
	}
	h := o.Len()
	id := 0
	if o.X&h != 0 {
		id |= 1
	}
	if o.Y&h != 0 {
		id |= 2
	}
	if o.Z&h != 0 {
		id |= 4
	}
	return id
}

// AncestorAt returns the ancestor of o at the given level (<= o.Level).
func (o Octant) AncestorAt(level int8) Octant {
	if level > o.Level || level < 0 {
		panic("octant: invalid ancestor level")
	}
	mask := ^(Len(level) - 1)
	return Octant{X: o.X & mask, Y: o.Y & mask, Z: o.Z & mask, Level: level, Tree: o.Tree}
}

// IsAncestorOf reports whether o is a strict ancestor of b (same tree).
func (o Octant) IsAncestorOf(b Octant) bool {
	if o.Tree != b.Tree || o.Level >= b.Level {
		return false
	}
	return b.AncestorAt(o.Level).SamePosition(o)
}

// Contains reports whether o equals b or is an ancestor of b.
func (o Octant) Contains(b Octant) bool {
	return o == b || o.IsAncestorOf(b)
}

// SamePosition reports whether o and b have identical coordinates and level,
// ignoring tree.
func (o Octant) SamePosition(b Octant) bool {
	return o.X == b.X && o.Y == b.Y && o.Z == b.Z && o.Level == b.Level
}

// IsFamily reports whether the eight octants form a complete sibling family
// in z-order, so they can be coarsened into their common parent.
func IsFamily(o []Octant) bool {
	if len(o) != 8 || o[0].Level == 0 {
		return false
	}
	p := o[0].Parent()
	for i := 0; i < 8; i++ {
		if o[i].Tree != o[0].Tree || o[i].Level != o[0].Level || !o[i].SamePosition(p.Child(i)) {
			return false
		}
	}
	return true
}

// FaceNeighbor returns the equal-size neighbour of o across face f
// (0:-x 1:+x 2:-y 3:+y 4:-z 5:+z). The result may be exterior to the tree.
func (o Octant) FaceNeighbor(f int) Octant {
	h := o.Len()
	n := o
	switch f {
	case 0:
		n.X -= h
	case 1:
		n.X += h
	case 2:
		n.Y -= h
	case 3:
		n.Y += h
	case 4:
		n.Z -= h
	case 5:
		n.Z += h
	default:
		panic("octant: invalid face")
	}
	return n
}

// EdgeAxis returns the axis (0=x,1=y,2=z) an edge runs along.
func EdgeAxis(e int) int { return e / 4 }

// EdgeNeighbor returns the equal-size neighbour of o diagonally across edge
// e (p8est numbering: edges 0-3 along x, 4-7 along y, 8-11 along z).
func (o Octant) EdgeNeighbor(e int) Octant {
	h := o.Len()
	n := o
	sgn := func(bit int) int32 {
		if bit != 0 {
			return h
		}
		return -h
	}
	switch EdgeAxis(e) {
	case 0: // transverse axes y, z
		n.Y += sgn(e & 1)
		n.Z += sgn((e >> 1) & 1)
	case 1: // transverse axes x, z
		n.X += sgn(e & 1)
		n.Z += sgn((e >> 1) & 1)
	case 2: // transverse axes x, y
		n.X += sgn(e & 1)
		n.Y += sgn((e >> 1) & 1)
	default:
		panic("octant: invalid edge")
	}
	return n
}

// CornerNeighbor returns the equal-size neighbour of o diagonally across
// corner c (z-order corner numbering).
func (o Octant) CornerNeighbor(c int) Octant {
	h := o.Len()
	n := o
	sgn := func(bit int) int32 {
		if bit != 0 {
			return h
		}
		return -h
	}
	n.X += sgn(c & 1)
	n.Y += sgn((c >> 1) & 1)
	n.Z += sgn((c >> 2) & 1)
	return n
}

// Corner returns the lattice coordinates of corner c of o.
func (o Octant) Corner(c int) (x, y, z int32) {
	h := o.Len()
	x, y, z = o.X, o.Y, o.Z
	if c&1 != 0 {
		x += h
	}
	if c&2 != 0 {
		y += h
	}
	if c&4 != 0 {
		z += h
	}
	return
}

// FaceCorners lists the four corners of each face, in z-order within the face.
var FaceCorners = [6][4]int{
	{0, 2, 4, 6}, // -x
	{1, 3, 5, 7}, // +x
	{0, 1, 4, 5}, // -y
	{2, 3, 6, 7}, // +y
	{0, 1, 2, 3}, // -z
	{4, 5, 6, 7}, // +z
}

// EdgeCorners lists the two corners of each edge (low first).
var EdgeCorners = [12][2]int{
	{0, 1}, {2, 3}, {4, 5}, {6, 7}, // along x
	{0, 2}, {1, 3}, {4, 6}, {5, 7}, // along y
	{0, 4}, {1, 5}, {2, 6}, {3, 7}, // along z
}

// FaceAxis returns the axis normal to face f.
func FaceAxis(f int) int { return f / 2 }

// FaceSign returns -1 for a low face and +1 for a high face.
func FaceSign(f int) int32 {
	if f&1 == 0 {
		return -1
	}
	return 1
}

// TouchingFace reports whether octant face f lies on its tree's boundary
// face f (i.e. the neighbour across f would be exterior).
func (o Octant) TouchingFace(f int) bool {
	switch f {
	case 0:
		return o.X == 0
	case 1:
		return o.X+o.Len() == RootLen
	case 2:
		return o.Y == 0
	case 3:
		return o.Y+o.Len() == RootLen
	case 4:
		return o.Z == 0
	case 5:
		return o.Z+o.Len() == RootLen
	}
	panic("octant: invalid face")
}

// ExteriorFaces classifies an exterior octant: it returns, for each axis,
// -1 if the octant lies beyond the low face, +1 beyond the high face, and 0
// if it is within bounds along that axis. An interior octant yields {0,0,0}.
func (o Octant) ExteriorFaces() [3]int {
	var d [3]int
	for a, c := range [3]int32{o.X, o.Y, o.Z} {
		if c < 0 {
			d[a] = -1
		} else if c >= RootLen {
			d[a] = 1
		}
	}
	return d
}
