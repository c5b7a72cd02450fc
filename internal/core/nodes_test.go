package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/mpi"
	"repro/internal/octant"
	"repro/internal/raceflag"
)

func physOfPoint(g connectivity.Geometry, tree int32, p [3]int32) [3]float64 {
	return g.X(tree, [3]float64{
		connectivity.RefCoord(p[0]), connectivity.RefCoord(p[1]), connectivity.RefCoord(p[2]),
	})
}

func buildNodes(c *mpi.Comm, conn *connectivity.Conn, level, maxl int8) (*Forest, *GhostLayer, *Nodes) {
	f := New(c, conn, level)
	f.Refine(true, maxl, fractalRefine(maxl))
	f.Balance(BalanceFull)
	f.Partition()
	g := f.Ghost()
	nd := f.Nodes(g)
	return f, g, nd
}

func TestNodesUniformCounts(t *testing.T) {
	conn := connectivity.UnitCube()
	for _, p := range testRanks {
		mpi.Run(p, func(c *mpi.Comm) {
			f := New(c, conn, 2)
			g := f.Ghost()
			nd := f.Nodes(g)
			want := int64(5 * 5 * 5) // (2^2+1)^3
			if nd.NumGlobal != want {
				t.Errorf("p=%d: nodes = %d, want %d", p, nd.NumGlobal, want)
			}
			// All corners independent on a uniform mesh.
			for _, v := range nd.ElementNodes {
				if v < 0 {
					t.Fatalf("uniform mesh has hanging corner")
				}
			}
		})
	}
}

func TestNodesUniformTorusCounts(t *testing.T) {
	// Fully periodic 2x2x2 brick at level 1: a 4x4x4 periodic grid of
	// elements has exactly 4^3 distinct nodes.
	conn := connectivity.Brick(2, 2, 2, true, true, true)
	mpi.Run(3, func(c *mpi.Comm) {
		f := New(c, conn, 1)
		g := f.Ghost()
		nd := f.Nodes(g)
		if nd.NumGlobal != 64 {
			t.Errorf("torus nodes = %d, want 64", nd.NumGlobal)
		}
	})
}

func TestNodesGlobalIDsConsistent(t *testing.T) {
	conn := connectivity.SixRotCubes()
	for _, p := range []int{1, 3, 6} {
		var serialCount int64
		mpi.Run(p, func(c *mpi.Comm) {
			_, _, nd := buildNodes(c, conn, 1, 3)
			type kv struct {
				K  connectivity.TreePoint
				ID int64
			}
			var mine []kv
			for i, k := range nd.Keys {
				mine = append(mine, kv{k, nd.GlobalID[i]})
			}
			all := mpi.Allgather(c, mine)
			if c.Rank() == 0 {
				ids := map[connectivity.TreePoint]int64{}
				used := map[int64]bool{}
				for _, part := range all {
					for _, e := range part {
						if e.ID < 0 || e.ID >= nd.NumGlobal {
							t.Fatalf("id %d out of range [0,%d)", e.ID, nd.NumGlobal)
						}
						if prev, ok := ids[e.K]; ok && prev != e.ID {
							t.Fatalf("key %+v has ids %d and %d", e.K, prev, e.ID)
						}
						ids[e.K] = e.ID
						used[e.ID] = true
					}
				}
				if int64(len(ids)) != nd.NumGlobal || int64(len(used)) != nd.NumGlobal {
					t.Fatalf("distinct keys %d, distinct ids %d, want %d", len(ids), len(used), nd.NumGlobal)
				}
				if p == 1 {
					serialCount = nd.NumGlobal
				} else if serialCount != 0 && nd.NumGlobal != serialCount {
					t.Fatalf("node count varies with P")
				}
			}
		})
	}
}

func TestNodesLinearExactness(t *testing.T) {
	// On a brick (piecewise-linear geometry that is globally affine), the
	// trilinear space reproduces linear functions exactly, including across
	// hanging faces and edges: every constrained corner's interpolated value
	// must equal the linear function at the corner's physical position.
	conn := connectivity.Brick(2, 2, 1, false, false, false)
	lin := func(x [3]float64) float64 { return 1.5*x[0] - 2.25*x[1] + 0.5*x[2] + 3 }
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			f, _, nd := buildNodes(c, conn, 1, 4)
			g := conn.Geometry()
			vals := make([]float64, len(nd.Keys))
			for i, k := range nd.Keys {
				vals[i] = lin(physOfPoint(g, k.Tree, [3]int32{k.X, k.Y, k.Z}))
			}
			hangingSeen := false
			for ei, o := range f.Local {
				for cc := 0; cc < 8; cc++ {
					ref := nd.Corner(ei, cc)
					var v float64
					for _, ni := range ref {
						v += vals[ni] * (1 / float64(len(ref)))
					}
					want := lin(physOfPoint(g, o.Tree, cornerPoint(o, cc)))
					if math.Abs(v-want) > 1e-9 {
						t.Fatalf("corner %d of %v: interpolated %v, want %v (refs %d)", cc, o, v, want, len(ref))
					}
					if len(ref) != 1 {
						hangingSeen = true
						if len(ref) != 2 && len(ref) != 4 {
							t.Fatalf("hanging corner with %d anchors", len(ref))
						}
					}
				}
			}
			anyHanging := mpi.AllreduceOr(c, hangingSeen)
			if !anyHanging {
				t.Error("test mesh produced no hanging corners")
			}
		})
	}
}

func TestNodesShellCanonicalGeometry(t *testing.T) {
	// Canonicalization across the shell's rotated trees must identify
	// points that coincide physically: the geometry position of the
	// canonical key equals the geometry position of the original corner.
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(4, func(c *mpi.Comm) {
		f, _, nd := buildNodes(c, conn, 1, 3)
		g := conn.Geometry()
		for ei, o := range f.Local {
			for cc := 0; cc < 8; cc++ {
				ref := nd.Corner(ei, cc)
				if len(ref) != 1 {
					continue
				}
				k := nd.Keys[ref[0]]
				pk := physOfPoint(g, k.Tree, [3]int32{k.X, k.Y, k.Z})
				pc := physOfPoint(g, o.Tree, cornerPoint(o, cc))
				for a := 0; a < 3; a++ {
					if math.Abs(pk[a]-pc[a]) > 1e-9 {
						t.Fatalf("canonical key %+v at %v, corner at %v", k, pk, pc)
					}
				}
			}
		}
	})
}

func TestNodesAssembleElementCounts(t *testing.T) {
	// On a uniform unit-cube mesh, summing one contribution per element
	// corner must yield 8 for interior nodes, 4 for face nodes, 2 for edge
	// nodes, and 1 for corner nodes of the domain.
	conn := connectivity.UnitCube()
	mpi.Run(4, func(c *mpi.Comm) {
		f := New(c, conn, 2)
		g := f.Ghost()
		nd := f.Nodes(g)
		v := make([]float64, len(nd.Keys))
		for ei := range f.Local {
			for cc := 0; cc < 8; cc++ {
				ref := nd.Corner(ei, cc)
				v[ref[0]]++
			}
		}
		nd.AssembleSum(v)
		h := octant.Len(2)
		for i, k := range nd.Keys {
			want := 1.0
			for _, coord := range [3]int32{k.X, k.Y, k.Z} {
				if coord%h != 0 {
					t.Fatalf("node %+v not on level-2 lattice", k)
				}
				if coord != 0 && coord != octant.RootLen {
					want *= 2
				}
			}
			if v[i] != want {
				t.Errorf("node %+v count %v, want %v", k, v[i], want)
			}
		}
	})
}

func TestNodesHangingAnchorsAreIndependent(t *testing.T) {
	conn := connectivity.Shell(0.55, 1.0)
	mpi.Run(3, func(c *mpi.Comm) {
		f, _, nd := buildNodes(c, conn, 1, 3)
		// Every anchor of a hanging corner must also appear as an
		// independent corner reference somewhere or at least carry a valid
		// global id.
		for ei := range f.Local {
			for cc := 0; cc < 8; cc++ {
				ref := nd.Corner(ei, cc)
				for _, ni := range ref {
					if nd.GlobalID[ni] < 0 {
						t.Fatalf("node %d has unresolved id", ni)
					}
				}
			}
		}
		_ = nd
	})
}

// nodesCases are the forests the Nodes tests run on: four connectivities —
// one tree, a periodic brick whose trees neighbour themselves, six cubes
// meeting rotated, the 24-tree shell — under the fractal rule and under
// seeded random refinement and coarsening, each 2:1 balanced in full; and
// a 7×7×7 brick (tree ids past 255) refined down to octant.MaxLevel at
// the corner its trees (2..3, 2..3, 2..3) share, which puts full-width
// coordinates and hanging points on tree boundaries at every level.
func nodesCases(run func(name string, build func(c *mpi.Comm) *Forest)) {
	run("brick7/deep", func(c *mpi.Comm) *Forest {
		f := New(c, connectivity.Brick(7, 7, 7, false, false, false), 0)
		f.Refine(true, octant.MaxLevel, func(o octant.Octant) bool {
			i, j, k := int32(o.Tree%7), int32(o.Tree/7%7), int32(o.Tree/49)
			touches := func(lo, brick int32) bool {
				q := (3 - brick) * octant.RootLen
				return lo <= q && q <= lo+o.Len()
			}
			return touches(o.X, i) && touches(o.Y, j) && touches(o.Z, k)
		})
		f.Balance(BalanceFull)
		f.Partition()
		return f
	})
	conns := []struct {
		name string
		conn *connectivity.Conn
	}{
		{"unitcube", connectivity.UnitCube()},
		{"periodic", connectivity.Brick(2, 1, 1, true, true, true)},
		{"sixrot", connectivity.SixRotCubes()},
		{"shell", connectivity.Shell(0.55, 1)},
	}
	for _, cn := range conns {
		conn := cn.conn
		run(cn.name+"/fractal", func(c *mpi.Comm) *Forest {
			f := New(c, conn, 1)
			f.Refine(true, 3, fractalRefine(3))
			f.Balance(BalanceFull)
			f.Partition()
			return f
		})
		run(cn.name+"/random", func(c *mpi.Comm) *Forest {
			f := New(c, conn, 1)
			for round := uint64(0); round < 3; round++ {
				f.Refine(false, 4, func(o octant.Octant) bool { return pickMod(o, 10+round, 4) == 0 })
			}
			f.Partition()
			f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool { return pickMod(parent, 20, 3) == 0 })
			f.Balance(BalanceFull)
			f.Partition()
			return f
		})
	}
}

// TestNodesMatchesReference pins Forest.Nodes to the preserved per-corner
// implementation, field by field and bit by bit, and checks the hanging-node
// invariants on the way: a hanging corner reads 2 or 4 distinct anchors, an
// independent corner reads the node at its own canonical point, and no
// point that hangs anywhere is a node (so no anchor hangs itself).
func TestNodesMatchesReference(t *testing.T) {
	nodesCases(func(name string, build func(c *mpi.Comm) *Forest) {
		for _, p := range []int{1, 2, 3, 5} {
			hanging := 0
			mpi.Run(p, func(c *mpi.Comm) {
				f := build(c)
				g := f.Ghost()
				got, want := f.Nodes(g), f.referenceNodes(g)
				fail := func(format string, args ...any) {
					t.Errorf("%s P=%d rank %d: "+format, append([]any{name, p, c.Rank()}, args...)...)
				}
				if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.GlobalID, want.GlobalID) || !slices.Equal(got.Owner, want.Owner) {
					fail("keys, global ids or owners differ (%d keys, reference %d)", len(got.Keys), len(want.Keys))
				}
				if got.NumOwned != want.NumOwned || got.OwnedOffset != want.OwnedOffset || got.NumGlobal != want.NumGlobal {
					fail("owned %d at %d of %d, reference %d at %d of %d",
						got.NumOwned, got.OwnedOffset, got.NumGlobal, want.NumOwned, want.OwnedOffset, want.NumGlobal)
				}
				if !reflect.DeepEqual(got.reqLists, want.reqLists) || !reflect.DeepEqual(got.serveLists, want.serveLists) {
					fail("request or serve lists differ")
				}
				var hung []connectivity.TreePoint
				for e, o := range f.Local {
					for cc := 0; cc < 8; cc++ {
						ref := got.Corner(e, cc)
						if !slices.Equal(ref, want.Corner(e, cc)) {
							fail("corner %d of %v reads %v, reference %v", cc, o, ref, want.Corner(e, cc))
						}
						key := f.Conn.AppendPointImages(nil, o.Tree, cornerPoint(o, cc), 1)[0]
						switch n := len(ref); {
						case n == 1:
							if got.Keys[ref[0]] != key {
								fail("independent corner %d of %v reads node %+v", cc, o, got.Keys[ref[0]])
							}
						case n == 2 || n == 4:
							hung = append(hung, key)
							sorted := slices.Clone(ref)
							slices.Sort(sorted)
							if len(slices.Compact(sorted)) != n {
								fail("hanging corner %d of %v repeats an anchor: %v", cc, o, ref)
							}
						default:
							fail("corner %d of %v reads %d nodes", cc, o, n)
						}
					}
				}
				for _, part := range mpi.Allgather(c, hung) {
					for _, k := range part {
						if _, isNode := slices.BinarySearchFunc(got.Keys, k, compareTreePoint); isNode {
							fail("point %+v hangs on some rank and is a node here", k)
						}
					}
				}
				if n := mpi.AllreduceSum(c, int64(len(hung))); c.Rank() == 0 {
					hanging = int(n)
				}
			})
			if hanging == 0 {
				t.Errorf("%s P=%d: no hanging corner, the case pins nothing", name, p)
			}
		}
	})
}

// TestNodesLayout checks Nodes' flat corner layout at P = 1, 2 and 3: a
// uniform mesh has no hanging entry; on the fractal forest every ^h names
// a point of 2 or 4 anchors that are nodes, every hanging point is named
// by some corner, the corners at one point share its h and those at two
// points do not, and the anchor table holds exactly the points' anchors.
func TestNodesLayout(t *testing.T) {
	conn := connectivity.SixRotCubes()
	for _, p := range []int{1, 2, 3} {
		mpi.Run(p, func(c *mpi.Comm) {
			fail := func(format string, args ...any) {
				t.Errorf("P=%d rank %d: "+format, append([]any{p, c.Rank()}, args...)...)
			}
			u := New(c, conn, 2)
			if nd := u.Nodes(u.Ghost()); len(nd.ElementNodes) != 8*len(u.Local) || slices.ContainsFunc(nd.ElementNodes, func(v int32) bool { return v < 0 }) || len(nd.Anchors) != 0 {
				fail("uniform mesh: %d entries for %d elements, %d anchors, or a hanging entry", len(nd.ElementNodes), len(u.Local), len(nd.Anchors))
			}

			f, _, nd := buildNodes(c, conn, 1, 3)
			nh := len(nd.AnchorStart) - 1
			if len(nd.ElementNodes) != 8*len(f.Local) || nh < 0 || nd.AnchorStart[0] != 0 {
				fail("%d entries for %d elements, anchor starts %v...", len(nd.ElementNodes), len(f.Local), nd.AnchorStart[:min(len(nd.AnchorStart), 1)])
				return
			}
			sum := 0
			for h := range nh {
				a := nd.Anchors[nd.AnchorStart[h]:nd.AnchorStart[h+1]]
				if len(a) != 2 && len(a) != 4 {
					fail("hanging point %d has %d anchors", h, len(a))
				}
				for _, n := range a {
					if n < 0 || int(n) >= len(nd.Keys) {
						fail("hanging point %d has anchor %d of %d nodes", h, n, len(nd.Keys))
					}
				}
				sum += len(a)
			}
			if sum != len(nd.Anchors) {
				fail("the hanging points have %d anchors, the table %d", sum, len(nd.Anchors))
			}
			named := make([]bool, nh)
			at := map[connectivity.TreePoint]int32{}
			for e, o := range f.Local {
				for cc := 0; cc < 8; cc++ {
					v := nd.ElementNodes[8*e+cc]
					switch {
					case v >= 0:
						if int(v) >= len(nd.Keys) {
							fail("corner %d of %v reads node %d of %d", cc, o, v, len(nd.Keys))
						}
						continue
					case int(^v) >= nh:
						fail("corner %d of %v names hanging point %d of %d", cc, o, ^v, nh)
						continue
					}
					named[^v] = true
					key := f.Conn.AppendPointImages(nil, o.Tree, cornerPoint(o, cc), 1)[0]
					if h, ok := at[key]; ok && h != ^v {
						fail("the corners at %+v name hanging points %d and %d", key, h, ^v)
					}
					at[key] = ^v
				}
			}
			if h := slices.Index(named, false); h >= 0 {
				fail("no corner names hanging point %d", h)
			}
			if len(at) != nh {
				fail("%d hanging points for %d points that hang", nh, len(at))
			}
			if mpi.AllreduceSum(c, int64(nh)) == 0 {
				fail("no hanging point: the case pins nothing")
			}
		})
	}
}

// pointSlot is a lattice point with the index it came from, under the
// 128-bit key (tree, z, y, x), 32 bits each: compareTreePoint's order for
// points with no negative coordinate.
type pointSlot struct {
	key  connectivity.TreePoint
	slot int32
}

func (w *pointSlot) sortKey() (uint64, uint64) {
	return uint64(w.key.Tree)<<32 | uint64(w.key.Z), uint64(w.key.Y)<<32 | uint64(w.key.X)
}

// TestRadixSortMatchesSortFunc checks the in-place radix sort against
// slices.SortFunc on the order of Keys: the output is sorted and holds the
// same elements, across the insertion cut-off, on keys that agree on every
// digit or differ only in the top one, on tree ids past one digit and on
// coordinates up to 15·RootLen, the lattice of degree 15.
func TestRadixSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	coord := func() int32 {
		switch rng.IntN(4) {
		case 0:
			return octant.RootLen
		case 1:
			return 15 * octant.RootLen
		}
		return rng.Int32N(15*octant.RootLen + 1)
	}
	kinds := []struct {
		name string
		gen  func() connectivity.TreePoint
	}{
		{"random", func() connectivity.TreePoint {
			return connectivity.TreePoint{Tree: rng.Int32N(400), X: coord(), Y: coord(), Z: coord()}
		}},
		{"equal", func() connectivity.TreePoint {
			return connectivity.TreePoint{Tree: 300, X: octant.RootLen, Y: 15 * octant.RootLen, Z: 5}
		}},
		{"top digit", func() connectivity.TreePoint {
			return connectivity.TreePoint{Tree: rng.Int32N(128) << 24, X: 1, Y: 2, Z: 3}
		}},
		{"few points", func() connectivity.TreePoint {
			return connectivity.TreePoint{Tree: 256 + rng.Int32N(2), X: rng.Int32N(3) * octant.RootLen, Y: 7, Z: rng.Int32N(2)}
		}},
	}
	bySlot := func(a, b pointSlot) int { return cmp.Or(compareTreePoint(a.key, b.key), cmp.Compare(a.slot, b.slot)) }
	for _, kind := range kinds {
		name := kind.name
		for _, n := range []int{0, 1, 31, 32, 33, 10000} {
			want := make([]pointSlot, n)
			for i := range want {
				want[i] = pointSlot{kind.gen(), int32(i)}
			}
			got := slices.Clone(want)
			radixSort(got, (*pointSlot).sortKey)
			slices.SortFunc(want, func(a, b pointSlot) int { return compareTreePoint(a.key, b.key) })
			for i := range got {
				if got[i].key != want[i].key {
					t.Fatalf("%s n=%d: key %d is %+v, slices.SortFunc has %+v", name, n, i, got[i].key, want[i].key)
				}
			}
			slices.SortFunc(got, bySlot)
			slices.SortFunc(want, bySlot)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: the radix sort lost or duplicated elements", name, n)
			}
		}
	}
}

// TestNodesAllocsPerElement pins what a repeat Nodes call allocates on the
// fig4-fractal forest (SixRotCubes, level 2 + 3, 45,912 octants) on one
// rank: a handful of flat arrays. The per-corner implementation made 50.2
// objects and 1,427 B per element; the comparison-sorted one 1.31 and
// 560 B; the radix-grouped one, which sorts in place and asks each
// family's questions once, 1.16 and 556 B, most of the objects image lists
// of points on tree boundaries; the corner-counting one, whose stable sort
// needed a second record array, 0.0003 (13 objects) and 517 B; with the
// bucketed sort, whose scratch is one bucket long, 422 B; with one int32
// per corner, the point groups' array turned into the result, 231 B. The
// byte bound is that reading plus 4 %.
func TestNodesAllocsPerElement(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins hold only without -race")
	}
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, connectivity.SixRotCubes(), 2)
		f.Refine(true, 5, fractalRefine(5))
		f.Balance(BalanceFull)
		g := f.Ghost()
		if n := f.NumGlobal(); n != 45912 {
			t.Fatalf("forest has %d octants, the pin is for 45,912", n)
		}
		f.Nodes(g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nd := f.Nodes(g)
		runtime.ReadMemStats(&after)
		n := float64(len(f.Local))
		allocs, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
		t.Logf("%.4f allocations and %.0f B per element, %d nodes", allocs, bytes, nd.NumGlobal)
		if allocs > 0.001 || bytes > 240 {
			t.Errorf("Nodes allocates %.4f objects and %.0f B per element, want at most 0.001 and 240", allocs, bytes)
		}
	})
}

// TestBalanceAllocsPerElement pins what a from-scratch BalanceFull
// allocates on the same forest on one rank: the target records, a new
// leaf array per refinement pass and the created lists, under a hundred
// objects in all. The per-leaf demand implementation made 27.5 objects
// and 2,053 B per element; the merge walk, which sized each new leaf array
// for 7 new leaves per target, 0.002 and 204 B; sized by a dry run, with
// no list of the local pass's leaves, 105 B. The byte bound is that
// reading plus 5 %.
func TestBalanceAllocsPerElement(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins hold only without -race")
	}
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, connectivity.SixRotCubes(), 2)
		f.Refine(true, 5, fractalRefine(5))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.Balance(BalanceFull)
		runtime.ReadMemStats(&after)
		if n := f.NumGlobal(); n != 45912 {
			t.Fatalf("forest has %d octants, the pin is for 45,912", n)
		}
		n := float64(f.NumGlobal())
		allocs, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
		t.Logf("%.3f allocations and %.0f B per element", allocs, bytes)
		if allocs > 0.01 || bytes > 110 {
			t.Errorf("Balance allocates %.3f objects and %.0f B per element, want at most 0.01 and 110", allocs, bytes)
		}
	})
}

// TestRefineToNodesSizesExactly: the leaf array and the created list that
// refineToNodes returns have no spare capacity, whether a target is a
// leaf's child or lies levels below it, and the created leaves are the new
// ones, in curve order.
func TestRefineToNodesSizesExactly(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, connectivity.SixRotCubes(), 2)
		f.Refine(true, 4, fractalRefine(4))
		before := slices.Clone(f.Local)
		var cand candidates
		for i, o := range f.Local {
			if pickMod(o, uint64(i%3), 5) == 0 {
				d := o
				for range 1 + i%3 {
					d = d.Child(i % 8)
				}
				cand.add(f, d.CurveKey())
			}
		}
		targets := cand.take(f)
		if len(targets) == 0 {
			t.Fatal("no targets: the case refines nothing")
		}
		created := f.refineToNodes(targets)
		if cap(f.Local) != len(f.Local) || cap(created) != len(created) {
			t.Errorf("%d leaves in %d, %d created in %d: want no spare capacity", len(f.Local), cap(f.Local), len(created), cap(created))
		}
		split := 0
		for i := range targets {
			if i == 0 || targets[i].leaf != targets[i-1].leaf {
				split++
			}
		}
		if got := len(f.Local) - len(before); got != len(created)-split {
			t.Errorf("%d leaves more for %d created in %d split leaves", got, len(created), split)
		}
		if !slices.IsSortedFunc(created, octant.Compare) || !slices.IsSortedFunc(f.Local, octant.Compare) {
			t.Error("leaves out of curve order")
		}
		for _, o := range created {
			if _, old := slices.BinarySearchFunc(before, o, octant.Compare); old {
				t.Fatalf("created leaf %v was a leaf before", o)
			}
		}
	})
}

// TestRebalanceAllocsPerElement pins what an incremental BalanceFull
// allocates on the same forest on one rank after the change the
// core.rebalance probe makes: about 5 % of the families coarsened and 5 %
// of the leaves refined one level. The binary search per candidate made
// 96 B per element; the sorted walk, whose candidate buffer the forest
// keeps from the Balance before, 91 B.
func TestRebalanceAllocsPerElement(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins hold only without -race")
	}
	mpi.Run(1, func(c *mpi.Comm) {
		f := New(c, connectivity.SixRotCubes(), 2)
		f.Refine(true, 5, fractalRefine(5))
		f.Balance(BalanceFull)
		if n := f.NumGlobal(); n != 45912 {
			t.Fatalf("forest has %d octants, the pin is for 45,912", n)
		}
		f.Coarsen(false, func(parent octant.Octant, _ []octant.Octant) bool { return pickMod(parent, 1, 20) == 0 })
		f.Refine(false, 5, func(o octant.Octant) bool { return pickMod(o, 2, 20) == 0 })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.Balance(BalanceFull)
		runtime.ReadMemStats(&after)
		n := float64(f.NumGlobal())
		allocs, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
		t.Logf("%.3f allocations and %.0f B per element, %d leaves", allocs, bytes, f.NumGlobal())
		if allocs > 0.01 || bytes > 120 {
			t.Errorf("re-balance allocates %.3f objects and %.0f B per element, want at most 0.01 and 120", allocs, bytes)
		}
	})
}

// TestRetainedBytesPerOctant pins what the forest keeps, where the
// allocation pins above pin what a phase allocates: the live heap after a
// forced collection, in bytes per octant of the balanced fig4-fractal
// forest (SixRotCubes, level 2 + 3, 45,912 octants), after each phase of
// the pipeline at P = 1 and 2, with the ghost layer and the Nodes result
// held. The leaves alone are 20 B per octant; Balance used to leave 101 B,
// its candidate buffer and three times the leaves' capacity, and Nodes 330
// B with a slice header per corner, 255 B with them sharing one array, and
// 97 B with one int32 per corner. Each bound is the reading (at P = 2, the
// larger) plus a few bytes.
func TestRetainedBytesPerOctant(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures hold only without -race")
	}
	live := func() float64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	names := [6]string{"new", "refine", "partition", "balance", "ghost", "nodes"}
	bound := [6]float64{4, 20, 20, 25, 30, 105}
	for _, p := range []int{1, 2} {
		var got [6]float64
		base := live()
		mpi.Run(p, func(c *mpi.Comm) {
			var f *Forest
			var g *GhostLayer
			var nd *Nodes
			phases := [6]func(){
				func() { f = New(c, connectivity.SixRotCubes(), 2) },
				func() { f.Refine(true, 5, fractalRefine(5)) },
				func() { f.Partition() },
				func() { f.Balance(BalanceFull) },
				func() { g = f.Ghost() },
				func() { nd = f.Nodes(g) },
			}
			for i, phase := range phases {
				phase()
				c.Barrier()
				if c.Rank() == 0 {
					got[i] = live() - base
				}
				c.Barrier()
			}
			if n := f.NumGlobal(); n != 45912 {
				t.Errorf("forest has %d octants, the pin is for 45,912", n)
			}
			runtime.KeepAlive(nd)
		})
		for i, name := range names {
			b := got[i] / 45912
			t.Logf("P = %d: %4.0f B per octant after %s", p, b, name)
			if b > bound[i] {
				t.Errorf("P = %d: the forest keeps %.0f B per octant after %s, want at most %.0f", p, b, name, bound[i])
			}
		}
	}
}

// panicText runs body and returns what it panicked with, "" if it did not.
func panicText(body func()) (text string) {
	defer func() {
		if p := recover(); p != nil {
			text = fmt.Sprint(p)
		}
	}()
	body()
	return ""
}

// TestNodesDiagnosesItsPreconditions: a ghost layer that lacks a neighbour
// and a forest that is not 2:1 balanced are reported as such, not numbered
// wrongly.
func TestNodesDiagnosesItsPreconditions(t *testing.T) {
	conn := connectivity.SixRotCubes()
	got := panicText(func() {
		mpi.Run(2, func(c *mpi.Comm) {
			f, _, _ := buildNodes(c, conn, 1, 3)
			f.Nodes(&GhostLayer{})
		})
	})
	if !strings.Contains(got, "ghost layer incomplete") {
		t.Errorf("Nodes without ghosts on two ranks: panic %q, want the ghost layer named", got)
	}
	got = panicText(func() {
		mpi.Run(1, func(c *mpi.Comm) {
			f := New(c, conn, 1)
			f.Refine(true, 4, fractalRefine(4))
			f.Nodes(f.Ghost())
		})
	})
	if !strings.Contains(got, "not 2:1 balanced") {
		t.Errorf("Nodes on an unbalanced forest: panic %q, want the balance named", got)
	}
}

// TestAssembleDiagnosesShortContribution: a contribution that does not
// match the serve list is the diagnosed length mismatch for every assemble
// entry point (AssembleSumVec used to index past the end instead).
func TestAssembleDiagnosesShortContribution(t *testing.T) {
	calls := map[string]func(nd *Nodes){
		"AssembleSum":    func(nd *Nodes) { nd.AssembleSum(make([]float64, len(nd.Keys))) },
		"AssembleSumVec": func(nd *Nodes) { nd.AssembleSumVec(2, make([]float64, 2*len(nd.Keys))) },
	}
	for name, call := range calls {
		got := panicText(func() {
			mpi.Run(2, func(c *mpi.Comm) {
				f := New(c, connectivity.UnitCube(), 2)
				nd := f.Nodes(f.Ghost())
				for r, idx := range nd.serveLists {
					nd.serveLists[r] = append(idx, idx[0])
				}
				call(nd)
			})
		})
		if !strings.Contains(got, "contribution length mismatch") {
			t.Errorf("%s with a short contribution: panic %q, want the length mismatch", name, got)
		}
	}
}

// TestNodesKeyWidthFromGhosts: a rank whose ghost leaves are all deeper
// than its local leaves — the first rank's four level-1 leaves beside the
// second rank's level-2 leaves — still numbers as the reference does, so
// the lattice width of the corner records comes from local and ghost
// leaves, not from the local ones alone.
func TestNodesKeyWidthFromGhosts(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		f := New(c, connectivity.UnitCube(), 1)
		f.Refine(false, 2, func(octant.Octant) bool { return c.Rank() == 1 })
		f.Balance(BalanceFull)
		g := f.Ghost()
		if c.Rank() == 0 {
			for _, o := range f.Local {
				if o.Level != 1 {
					t.Fatalf("rank 0 holds %v, the case wants only level-1 leaves", o)
				}
			}
			for _, o := range g.Octants {
				if o.Level != 2 {
					t.Fatalf("rank 0 sees ghost %v, the case wants only level-2 ghosts", o)
				}
			}
		}
		got, want := f.Nodes(g), f.referenceNodes(g)
		if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.GlobalID, want.GlobalID) || !sameCorners(got, want, len(f.Local)) {
			t.Errorf("rank %d: %d keys, reference %d, or the element references differ", c.Rank(), len(got.Keys), len(want.Keys))
		}
	})
}

// sameCorners reports whether every corner of the n local elements reads
// the same nodes in a and b.
func sameCorners(a, b *Nodes, n int) bool {
	for e := 0; e < n; e++ {
		for c := 0; c < 8; c++ {
			if !slices.Equal(a.Corner(e, c), b.Corner(e, c)) {
				return false
			}
		}
	}
	return true
}

// TestNodesDiagnosesMissingCornerGhosts: a ghost layer that lacks only the
// leaves that touch the partition through an edge or a corner makes some
// point look as if it hung; Nodes must name the ghost layer rather than
// number it.
func TestNodesDiagnosesMissingCornerGhosts(t *testing.T) {
	removed := 0
	got := panicText(func() {
		mpi.Run(2, func(c *mpi.Comm) {
			f, g, _ := buildNodes(c, connectivity.SixRotCubes(), 1, 3)
			shareFace := func(a, b octant.Octant) bool {
				if a.Level < b.Level {
					a, b = b, a
				}
				return slices.ContainsFunc(f.Conn.AppendNeighbors(nil, a, connectivity.Faces), b.Contains)
			}
			faces := &GhostLayer{}
			for i, q := range g.Octants {
				if slices.ContainsFunc(f.Local, func(o octant.Octant) bool { return shareFace(o, q) }) {
					faces.Octants = append(faces.Octants, q)
					faces.Owner = append(faces.Owner, g.Owner[i])
				}
			}
			if n := mpi.AllreduceSum(c, int64(len(g.Octants)-len(faces.Octants))); c.Rank() == 0 {
				removed = int(n)
			}
			f.Nodes(faces)
		})
	})
	if removed == 0 {
		t.Fatal("every ghost shares a face with the partition: the case removes nothing")
	}
	if !strings.Contains(got, "ghost layer incomplete") {
		t.Errorf("Nodes without %d edge and corner ghosts: panic %q, want the ghost layer named", removed, got)
	}
}

// TestRadixSortsOnEveryShape runs both radix sorts on Nodes' corner
// records by (tree, point), Balance's curve keys and points keyed by all
// 128 bits — over the kinds and sizes of
// TestRadixSortMatchesSortFunc: each must give slices.SortStableFunc's
// order, radixSortStable element for element (equal keys keep their
// order) and radixSort key for key with the same elements.
func TestRadixSortsOnEveryShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	type gen func() (tree int32, x, y, z int32)
	coord := func() int32 { return rng.Int32N(15*octant.RootLen + 1) }
	kinds := []struct {
		name string
		gen  gen
	}{
		{"random", func() (int32, int32, int32, int32) { return rng.Int32N(400), coord(), coord(), coord() }},
		{"equal", func() (int32, int32, int32, int32) { return 300, octant.RootLen, 15 * octant.RootLen, 5 }},
		{"top digit", func() (int32, int32, int32, int32) { return rng.Int32N(128) << 24, 1, 2, 3 }},
		{"few points", func() (int32, int32, int32, int32) {
			return 256 + rng.Int32N(2), rng.Int32N(3) * octant.RootLen, 7, rng.Int32N(2)
		}},
	}
	for _, kind := range kinds {
		for _, n := range []int{0, 1, 31, 32, 33, 10000} {
			name := fmt.Sprintf("%s n=%d", kind.name, n)
			slots := make([]pointSlot, n)
			recs := make([]cornerRec, n)
			curve := make([]octant.CurveKey, n)
			for i := 0; i < n; i++ {
				tree, x, y, z := kind.gen()
				slots[i] = pointSlot{connectivity.TreePoint{Tree: tree, X: x, Y: y, Z: z}, int32(i)}
				// b = 20 bits a coordinate, the widest Nodes packs.
				recs[i] = cornerRec{at: uint64(z&(1<<20-1))<<40 | uint64(y&(1<<20-1))<<20 | uint64(x&(1<<20-1)), tree: tree, ref: int32(i)}
				curve[i] = octant.Octant{X: x % octant.RootLen, Y: y % octant.RootLen, Z: z % octant.RootLen, Level: int8(i % (octant.MaxLevel + 1)), Tree: tree}.CurveKey()
			}
			checkRadixSorts(t, "pointSlot "+name, slots, (*pointSlot).sortKey)
			checkRadixSorts(t, "cornerRec "+name, recs, (*cornerRec).sortKey)
			checkRadixSorts(t, "CurveKey "+name, curve, func(k *octant.CurveKey) (uint64, uint64) { return k.Hi, k.Lo })
		}
	}
}

func checkRadixSorts[T comparable](t *testing.T, name string, a []T, key func(*T) (uint64, uint64)) {
	t.Helper()
	byKey := func(x, y T) int {
		xh, xl := key(&x)
		yh, yl := key(&y)
		return cmp.Or(cmp.Compare(xh, yh), cmp.Compare(xl, yl))
	}
	want := slices.Clone(a)
	slices.SortStableFunc(want, byKey)
	stable, _ := radixSortStable(slices.Clone(a), make([]T, len(a)), key)
	if !slices.Equal(stable, want) {
		t.Errorf("%s: radixSortStable differs from slices.SortStableFunc", name)
	}
	for sort, run := range map[string]func([]T){
		"radixSort":         func(a []T) { radixSort(a, key) },
		"radixSortBucketed": func(a []T) { radixSortBucketed(a, key) },
	} {
		got := slices.Clone(a)
		run(got)
		count := map[T]int{}
		for i := range got {
			if byKey(got[i], want[i]) != 0 {
				t.Fatalf("%s: %s puts %v at %d, slices.SortStableFunc %v", name, sort, got[i], i, want[i])
			}
			count[got[i]]++
			count[want[i]]--
		}
		for x, n := range count {
			if n != 0 {
				t.Fatalf("%s: %s has %v %d times too often", name, sort, x, n)
			}
		}
	}
}

// TestRadixSortBucketedGroups: the bucketed sort gives the keys
// slices.SortStableFunc's order, and each group of equal keys the same
// elements, on the edge cases of its two stages — no element, one, all
// keys equal, keys narrower than the top digit (the in-place pass alone),
// keys that differ in both words (the top digit spans them), and one
// bucket holding nearly every key (the scratch as long as the input).
func TestRadixSortBucketedGroups(t *testing.T) {
	type rec struct {
		hi, lo uint64
		id     int
	}
	key := func(r *rec) (uint64, uint64) { return r.hi, r.lo }
	byKey := func(x, y rec) int { return cmp.Or(cmp.Compare(x.hi, y.hi), cmp.Compare(x.lo, y.lo)) }
	rng := rand.New(rand.NewPCG(7, 8))
	kinds := []struct {
		name string
		gen  func() (hi, lo uint64)
	}{
		{"equal", func() (uint64, uint64) { return 5, 1 << 63 }},
		{"narrow", func() (uint64, uint64) { return 9, 1<<40 | rng.Uint64N(8) }},
		{"both words", func() (uint64, uint64) { return rng.Uint64N(4), rng.Uint64() >> rng.IntN(64) }},
		{"hi only", func() (uint64, uint64) { return rng.Uint64() >> rng.IntN(64), 3 }},
		{"one bucket", func() (uint64, uint64) {
			if rng.IntN(100) == 0 {
				return 1, rng.Uint64()
			}
			return 0, rng.Uint64N(1 << 20)
		}},
	}
	for _, kind := range kinds {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 5000} {
			a := make([]rec, n)
			for i := range a {
				a[i].hi, a[i].lo = kind.gen()
				a[i].id = i
			}
			want := slices.Clone(a)
			slices.SortStableFunc(want, byKey)
			got := slices.Clone(a)
			radixSortBucketed(got, key)
			for i := 0; i < n; {
				j := i + 1
				for j < n && byKey(want[j], want[i]) == 0 {
					j++
				}
				group := slices.Clone(got[i:j])
				slices.SortFunc(group, func(x, y rec) int { return cmp.Compare(x.id, y.id) })
				if !slices.Equal(group, want[i:j]) {
					t.Fatalf("%s n=%d: positions %d..%d hold %v, the group of key %x:%x is %v", kind.name, n, i, j, got[i:j], want[i].hi, want[i].lo, want[i:j])
				}
				i = j
			}
		}
	}
}
