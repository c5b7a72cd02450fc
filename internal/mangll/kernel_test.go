package mangll

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/connectivity"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// orderKernel checks the driver's per-element contract from inside the
// hooks: Volume of an element once and before any of its links, every link
// once, the links of one element ascending, interior elements' links via
// InteriorFace and boundary elements' via BoundaryFace, and no link of a
// boundary element while the ghost exchange is still in flight. Counters
// are atomic so the same kernel works under any worker count; an
// element's own state (volSeen, lastLink) is only ever touched by the one
// worker whose batch owns the element.
type orderKernel struct {
	m        *Mesh
	boundary []bool // per element
	volSeen  []int32
	lastLink []int32 // per element: last link seen, -1 before the first
	linkSeen []int32
	faults   atomic.Int32
	first    atomic.Pointer[string]
}

func newOrderKernel(m *Mesh) *orderKernel {
	k := &orderKernel{
		m:        m,
		boundary: make([]bool, m.NumLocal),
		volSeen:  make([]int32, m.NumLocal),
		lastLink: make([]int32, m.NumLocal),
		linkSeen: make([]int32, len(m.Links)),
	}
	for _, e := range m.BoundaryElems {
		k.boundary[e] = true
	}
	for e := range k.lastLink {
		k.lastLink[e] = -1
	}
	return k
}

func (k *orderKernel) fault(msg string) {
	k.faults.Add(1)
	k.first.CompareAndSwap(nil, &msg)
}

func (k *orderKernel) NumComps() int { return 1 }

func (k *orderKernel) Volume(w *Work, elems []int32) {
	for _, e := range elems {
		k.volSeen[e]++
		if k.lastLink[e] != -1 {
			k.fault("Volume after a link of the same element")
		}
	}
}

func (k *orderKernel) face(links []int32, boundary bool) {
	for _, li := range links {
		e := k.m.Links[li].Elem
		k.linkSeen[li]++
		switch {
		case k.volSeen[e] != 1:
			k.fault("link before its element's Volume")
		case li <= k.lastLink[e]:
			k.fault("links of one element out of ascending order")
		case k.boundary[e] != boundary:
			k.fault("link handed to the hook of the other element class")
		case boundary && k.m.exchActive:
			// Ordered after Finish by the phase join on a correct
			// schedule, so this read races only when the check fails.
			k.fault("link of a boundary element before Finish")
		}
		k.lastLink[e] = li
	}
}

func (k *orderKernel) InteriorFace(w *Work, links []int32) { k.face(links, false) }
func (k *orderKernel) BoundaryFace(w *Work, links []int32) { k.face(links, true) }

// TestApplyCoverage runs the order-checking kernel through one Apply
// on the serial path and under a pool, at 1 and 3 ranks, and pins the join count: one pool job per Apply on a rank no
// link of which reads ghost data, two otherwise.
func TestApplyCoverage(t *testing.T) {
	conn := connectivity.UnitCube()
	for _, workers := range []int{1, 3} {
		for _, p := range []int{1, 3} {
			reg := metrics.NewSharded(p)
			mpi.RunOpt(p, mpi.RunOptions{Workers: workers, Metrics: reg}, func(c *mpi.Comm) {
				_, m := buildMesh(c, conn, 1, 3, 2)
				field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
				jobs := reg.Counter("pool_jobs")
				k := newOrderKernel(m)
				j0 := jobs.ShardValue(c.Rank())
				m.Apply(k, field)
				where := fmt.Sprintf("w=%d p=%d rank=%d", workers, p, c.Rank())
				if n := k.faults.Load(); n != 0 {
					t.Errorf("%s: %d ordering faults, first: %s", where, n, *k.first.Load())
				}
				for e, n := range k.volSeen {
					if n != 1 {
						t.Fatalf("%s: element %d saw %d Volume calls", where, e, n)
					}
				}
				for li, n := range k.linkSeen {
					if n != 1 {
						t.Fatalf("%s: link %d ran %d times", where, li, n)
					}
				}
				want := int64(1)
				if len(m.bndLinks) > 0 {
					want = 2
				}
				if p == 1 && want != 1 {
					t.Fatalf("%s: serial mesh has boundary-element links", where)
				}
				if got := jobs.ShardValue(c.Rank()) - j0; workers > 1 && got != want {
					t.Errorf("%s: %d pool jobs per Apply, want %d", where, got, want)
				}
			})
		}
	}
}

// sumKernel is a tiny but numerically nontrivial kernel: Volume adds a
// per-node function of the field, face hooks lift the link's face values
// into the output. Accumulation order within an element matters at the
// ulp level, which is exactly what the identity test must pin.
type sumKernel struct {
	m     *Mesh
	field []float64
	out   []float64
}

func (k *sumKernel) NumComps() int { return 1 }

func (k *sumKernel) Volume(w *Work, elems []int32) {
	m := k.m
	for _, e := range elems {
		base := int(e) * m.Np
		for n := 0; n < m.Np; n++ {
			v := k.field[base+n]
			k.out[base+n] += v*v + math.Sin(v)
		}
	}
}

func (k *sumKernel) face(w *Work, links []int32) {
	m := k.m
	vals := make([]float64, m.Nf)
	nbr := make([]float64, m.Nf)
	for _, li := range links {
		l := &m.Links[li]
		if l.Kind == LinkBoundary {
			continue // domain boundary: nothing to lift
		}
		w.MyFaceValues(l, 1, 0, k.field, vals)
		w.FaceValues(l, 1, 0, k.field, nbr)
		for fn := range vals {
			vals[fn] = 0.5 * (vals[fn] + nbr[fn])
		}
		w.LiftFace(l, vals, k.out)
	}
}

func (k *sumKernel) InteriorFace(w *Work, links []int32) { k.face(w, links) }
func (k *sumKernel) BoundaryFace(w *Work, links []int32) { k.face(w, links) }

// applySum runs the sum kernel once on a fresh mesh and returns a bitwise
// fingerprint of the output gathered to rank 0 (element counts per rank are
// partition-determined, so the per-rank hash is comparable across worker
// counts but not rank counts).
func applySum(c *mpi.Comm) uint64 {
	_, m := buildMesh(c, connectivity.UnitCube(), 1, 3, 3)
	field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
	for i := 0; i < m.NumLocal*m.Np; i++ {
		field[i] = math.Sin(float64(i%97)) + m.X[0][i]
	}
	k := &sumKernel{m: m, field: field, out: make([]float64, m.NumLocal*m.Np)}
	m.Apply(k, field)
	// FNV-1a over the raw bits, reduced with a fixed-order allgather.
	h := uint64(14695981039346656037)
	for _, v := range k.out {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	hashes := mpi.Allgather(c, int64(h))
	h = uint64(14695981039346656037)
	for _, v := range hashes {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// TestApplyThreeWayIdentity is the kernel-level identity matrix: serial
// and pooled (workers 2 and 4) applications must produce bitwise-identical
// results, at 1 and 4 ranks.
func TestApplyThreeWayIdentity(t *testing.T) {
	for _, p := range []int{1, 4} {
		var want uint64
		for _, w := range []int{1, 2, 4} {
			var got uint64
			mpi.RunOpt(p, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
				if h := applySum(c); c.Rank() == 0 {
					got = h
				}
			})
			if w == 1 {
				want = got
			} else if got != want {
				t.Errorf("p=%d w=%d: hash %#x, want the serial hash %#x", p, w, got, want)
			}
		}
	}
}

// TestBatchPartition checks the batch invariants directly: element ranges
// tile [0, NumLocal), the link windows tile intLinks and bndLinks, and
// every batch's links belong to its element range.
func TestBatchPartition(t *testing.T) {
	mpi.RunOpt(2, mpi.RunOptions{Workers: 3}, func(c *mpi.Comm) {
		_, m := buildMesh(c, connectivity.UnitCube(), 1, 3, 2)
		if len(m.batches) < 2 {
			t.Fatalf("pooled mesh has %d batches", len(m.batches))
		}
		nextElem, nInt, nBnd := 0, 0, 0
		for bi := range m.batches {
			b := &m.batches[bi]
			lo := nextElem
			for _, e := range b.elems {
				if int(e) != nextElem {
					t.Fatalf("batch %d: element %d out of order (want %d)", bi, e, nextElem)
				}
				nextElem++
			}
			check := func(name string, window, list []int32, n *int) {
				for _, li := range window {
					if li != list[*n] {
						t.Fatalf("batch %d: %s link %d out of order (want %d)", bi, name, li, list[*n])
					}
					*n++
					if e := int(m.Links[li].Elem); e < lo || e >= nextElem {
						t.Fatalf("batch %d: %s link of element %d outside [%d,%d)", bi, name, e, lo, nextElem)
					}
				}
			}
			check("interior", b.intLinks, m.intLinks, &nInt)
			check("boundary", b.bndLinks, m.bndLinks, &nBnd)
		}
		if nextElem != m.NumLocal {
			t.Fatalf("batches cover %d elements, want %d", nextElem, m.NumLocal)
		}
		if nInt != len(m.intLinks) || nBnd != len(m.bndLinks) {
			t.Fatalf("batches cover %d/%d interior-element and %d/%d boundary-element links",
				nInt, len(m.intLinks), nBnd, len(m.bndLinks))
		}
		if len(m.bndLinks) == 0 {
			t.Fatal("2-rank mesh has no boundary-element links")
		}
	})
}

// TestSolveDenseMulti pins the pivoting behaviour of the projection
// operators' dense solver: a system whose leading pivot is zero (a00 = 0)
// must still solve exactly. Without row pivoting the elimination divides
// by zero and returns NaNs.
func TestSolveDenseMulti(t *testing.T) {
	a := [][]float64{{0, 1}, {2, 1}}
	b := [][]float64{{1, 3}, {3, 5}}
	// X = A^{-1} B with A^{-1} = [[-1/2 1/2][1 0]].
	want := [][]float64{{1, 1}, {1, 3}}
	x := solveDenseMulti(a, b)
	for i := range want {
		for j := range want[i] {
			if math.IsNaN(x[i][j]) || math.Abs(x[i][j]-want[i][j]) > 1e-14 {
				t.Fatalf("solveDenseMulti with zero leading pivot: got %v, want %v", x, want)
			}
		}
	}
}

// TestTensor2ApplyCubic pins the unrolled n = 4 path of tensor2ApplyNC
// against the generic loop, bit for bit in both passes, in both
// precisions, for one and nine components, with and without a folded
// gather: on random data sprinkled with exact zeros of both signs, and on
// data where every sum adds -0 products only (A all -0 and u positive,
// then B negative), whose sums are +0 when they start from +0, as they
// must, and -0 when they start from their first product.
func TestTensor2ApplyCubic(t *testing.T) {
	testTensor2ApplyCubic[float64](t)
	testTensor2ApplyCubic[float32](t)
}

func testTensor2ApplyCubic[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := T(math.Copysign(0, -1))
	sprinkled := func(i int) T {
		switch i % 5 {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return T(rng.NormFloat64())
	}
	// A face gather out of a 40-node element, and none.
	var idx []int32
	for _, k := range rng.Perm(40)[:16] {
		idx = append(idx, int32(k))
	}
	for _, data := range []string{"random", "signed zeros"} {
		for _, nc := range []int{1, 9} {
			a, b, u := make([]T, 16), make([]T, 16), make([]T, 40*nc)
			for i := range a {
				a[i], b[i] = sprinkled(i+rng.Intn(3)), T(rng.NormFloat64())
			}
			for i := range u {
				u[i] = sprinkled(i)
			}
			if data == "signed zeros" {
				for i := range a {
					a[i], b[i] = negZero, -1-T(rng.Float64())
				}
				for i := range u {
					u[i] = 1 + T(rng.Float64())
				}
			}
			for _, gather := range [][]int32{nil, idx} {
				got, want := make([]T, 16*nc), make([]T, 16*nc)
				tmpGot, tmpWant := make([]T, 16*nc), make([]T, 16*nc)
				tensor2ApplyNC(4, nc, a, b, gather, u, got, tmpGot)
				tensor2ApplyNCGeneric(4, nc, a, b, gather, u, want, tmpWant)
				for i := range want {
					if math.Float64bits(float64(tmpGot[i])) != math.Float64bits(float64(tmpWant[i])) {
						t.Fatalf("%s %T nc=%d gather=%v: first pass value %d is %v unrolled, %v generic",
							data, got[i], nc, gather != nil, i, tmpGot[i], tmpWant[i])
					}
					if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
						t.Fatalf("%s %T nc=%d gather=%v: value %d is %v unrolled, %v generic",
							data, got[i], nc, gather != nil, i, got[i], want[i])
					}
					if data == "signed zeros" && (want[i] != 0 || math.Signbit(float64(want[i]))) {
						t.Fatalf("%T nc=%d: a sum of -0 products is %v, want +0", want[i], nc, want[i])
					}
				}
			}
		}
	}
}

// TestResolveWorkersEnv covers the AMR_WORKERS fallback chain (explicit
// beats env beats default) and rejection of invalid values.
func TestResolveWorkersEnv(t *testing.T) {
	t.Setenv(mpi.EnvWorkers, "3")
	if w, err := mpi.ResolveWorkers(0); err != nil || w != 3 {
		t.Errorf("env fallback: got (%d, %v), want (3, nil)", w, err)
	}
	if w, err := mpi.ResolveWorkers(2); err != nil || w != 2 {
		t.Errorf("explicit override: got (%d, %v), want (2, nil)", w, err)
	}
	t.Setenv(mpi.EnvWorkers, "")
	if w, err := mpi.ResolveWorkers(0); err != nil || w != 1 {
		t.Errorf("default: got (%d, %v), want (1, nil)", w, err)
	}
	for _, bad := range []string{"zero", "0", "-2"} {
		t.Setenv(mpi.EnvWorkers, bad)
		if _, err := mpi.ResolveWorkers(0); err == nil {
			t.Errorf("AMR_WORKERS=%q accepted", bad)
		}
	}
	if _, err := mpi.ResolveWorkers(-1); err == nil {
		t.Error("ResolveWorkers(-1) accepted")
	}
}

// TestWorkersPlumbing checks that RunOpt threads the worker count to
// Comm.Workers and that the pool exists exactly when workers > 1.
func TestWorkersPlumbing(t *testing.T) {
	for _, w := range []int{1, 2} {
		mpi.RunOpt(2, mpi.RunOptions{Workers: w}, func(c *mpi.Comm) {
			if got := c.Workers(); got != w {
				t.Errorf("Comm.Workers() = %d, want %d", got, w)
			}
			if (c.Pool() != nil) != (w > 1) {
				t.Errorf("workers=%d: Pool() nil-ness wrong", w)
			}
		})
	}
}
