package octant

import (
	"math/bits"
)

// Key is a Morton (z-order) index: the 3*MaxLevel-bit interleaving of an
// octant's coordinates. Octants of any level are located by the key of their
// first (lowest-coordinate) max-level descendant, which equals the key of
// their own corner coordinates. Together with the level this induces the
// total pre-order traversal of the octree used by the space-filling curve.
type Key uint64

// spread3 distributes the low 21 bits of v so that consecutive input bits
// land three positions apart (standard 3D Morton magic numbers).
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact3 is the inverse of spread3.
func compact3(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x1f0000ff0000ff
	v = (v | v>>16) & 0x1f00000000ffff
	v = (v | v>>32) & 0x1fffff
	return v
}

// MortonKey returns the z-order key of o's corner. Only valid for interior
// coordinates (non-negative).
func (o Octant) MortonKey() Key {
	return Key(spread3(uint64(uint32(o.X))) |
		spread3(uint64(uint32(o.Y)))<<1 |
		spread3(uint64(uint32(o.Z)))<<2)
}

// FromMortonKey reconstructs an octant of the given level and tree from a
// z-order key (the key's low bits below the level's alignment are dropped).
func FromMortonKey(k Key, level int8, tree int32) Octant {
	o := Octant{
		X:     int32(compact3(uint64(k))),
		Y:     int32(compact3(uint64(k) >> 1)),
		Z:     int32(compact3(uint64(k) >> 2)),
		Level: level,
		Tree:  tree,
	}
	mask := ^(Len(level) - 1)
	o.X &= mask
	o.Y &= mask
	o.Z &= mask
	return o
}

// NumDescendants returns the number of max-level descendants of an octant at
// the given level, i.e. the length of its key range on the space-filling
// curve.
func NumDescendants(level int8) uint64 {
	return 1 << (3 * uint(MaxLevel-level))
}

// RangeEnd returns one past the last key covered by o on the curve.
func (o Octant) RangeEnd() Key {
	return o.MortonKey() + Key(NumDescendants(o.Level))
}

// LastDescendant returns o's last descendant at the given deeper level.
func (o Octant) LastDescendant(level int8) Octant {
	h := o.Len() - Len(level)
	return Octant{X: o.X + h, Y: o.Y + h, Z: o.Z + h, Level: level, Tree: o.Tree}
}

// comparePosition orders a and b by tree, then by the Morton key of their
// corners, without forming the keys. Two interleaved keys first differ in
// the highest bit in which any coordinate pair differs; the three coordinate
// bits at that position are the child ids of the two octants' ancestors one
// level below their nearest common one, interleaved as z, y, x, and the
// smaller child id is the smaller key. Coordinates are cut to the 21 bits
// MortonKey keeps, which puts exterior octants where their keys do.
func comparePosition(a, b *Octant) int {
	if a.Tree != b.Tree {
		if a.Tree < b.Tree {
			return -1
		}
		return 1
	}
	const mask = 0x1fffff
	ax, ay, az := uint32(a.X)&mask, uint32(a.Y)&mask, uint32(a.Z)&mask
	bx, by, bz := uint32(b.X)&mask, uint32(b.Y)&mask, uint32(b.Z)&mask
	differ := (ax ^ bx) | (ay ^ by) | (az ^ bz)
	if differ == 0 {
		return 0
	}
	top := uint32(1) << (bits.Len32(differ) - 1)
	if (az&top)<<2|(ay&top)<<1|ax&top < (bz&top)<<2|(by&top)<<1|bx&top {
		return -1
	}
	return 1
}

// compare is Compare on octants in place, for loops over leaf arrays.
func compare(a, b *Octant) int {
	if c := comparePosition(a, b); c != 0 || a.Level == b.Level {
		return c
	}
	if a.Level < b.Level {
		return -1
	}
	return 1
}

// Compare orders octants by the space-filling curve across the whole forest:
// first by tree, then by Morton key, then ancestors before descendants.
// It returns -1, 0, or +1.
func Compare(a, b Octant) int { return compare(&a, &b) }

// ComparePosition orders the curve positions of a and b — tree, then the
// Morton key of the corner, whatever the levels — without forming keys. It
// returns -1, 0, or +1.
func ComparePosition(a, b Octant) int { return comparePosition(&a, &b) }

// CurveKey is a curve position as the 128-bit key Hi:Lo — Hi the tree, Lo
// the Morton key shifted past the 5 level bits, then the level — whose
// unsigned order is Compare's for octants inside their trees.
type CurveKey struct{ Hi, Lo uint64 }

// CurveKey returns o's curve key.
func (o Octant) CurveKey() CurveKey {
	return CurveKey{uint64(o.Tree), uint64(o.MortonKey())<<5 | uint64(o.Level)}
}

// Octant returns the octant whose curve key k is.
func (k CurveKey) Octant() Octant {
	return FromMortonKey(Key(k.Lo>>5), int8(k.Lo&31), int32(k.Hi))
}

// Less reports Compare(a, b) < 0.
func Less(a, b Octant) bool { return Compare(a, b) < 0 }

// SearchContaining returns the index in the sorted leaf array of the leaf
// that contains q (q may be finer than the leaf), or -1 if no leaf does.
// This is the O(log N) binary search the paper attributes to the total
// ordering of the space-filling curve.
func SearchContaining(leaves []Octant, q Octant) int {
	// Find the last leaf whose curve position is <= q's first descendant.
	lo, hi := 0, len(leaves)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); compare(&leaves[mid], &q) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo - 1
	if i >= 0 && leaves[i].Contains(q) {
		return i
	}
	// q might be an ancestor of the found leaf (possible when q is coarser
	// than the mesh): also accept a leaf contained in q.
	if i+1 < len(leaves) && q.Contains(leaves[i+1]) {
		return i + 1
	}
	if i >= 0 && q.Contains(leaves[i]) {
		return i
	}
	return -1
}

// SearchOverlapRange returns the half-open index range [lo, hi) of sorted
// leaves that overlap octant q's region. No leaf may contain another, so
// the only leaf that starts before q and still overlaps it is the one just
// before the first leaf at or past q's position.
func SearchOverlapRange(leaves []Octant, q Octant) (lo, hi int) {
	hi = len(leaves)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); comparePosition(&leaves[mid], &q) >= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		if end := leaves[lo-1].LastDescendant(MaxLevel); comparePosition(&end, &q) >= 0 {
			lo--
		}
	}
	first, last := lo, q.LastDescendant(MaxLevel)
	for hi = len(leaves); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); comparePosition(&leaves[mid], &last) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return first, lo
}
