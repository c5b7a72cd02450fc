package mangll

import (
	"strconv"

	"repro/internal/trace"
)

// Kernel is a physics frontend's view of one right-hand-side evaluation:
// the mesh owns the schedule (ghost exchange, element batching, worker
// fan-out) and the kernel supplies the math through three hooks. This is
// the frontend-parameterized design of the mangll/SU_N spec: AMR owns
// mesh and fields, physics arrives as a kernel.
//
// Hook ordering contract (identical on every path — serial or pooled),
// stated per element because that is all dG needs: elements share
// no output nodes, so only the order of one element's own contributions
// can reach the result.
//
//	Volume(elems)        — element-local volume terms; every element,
//	                       once, before any of its links
//	InteriorFace(links)  — flux and lift of every link of the interior
//	                       elements (those none of whose links reads ghost
//	                       data), overlapped with the ghost exchange
//	BoundaryFace(links)  — flux and lift of every link of the boundary
//	                       elements, ghost-reading or not, after Finish
//
// Each element therefore accumulates its volume term and then its links in
// ascending link index, on every path. Link indices are element-major and
// face-ordered (buildLinks), which no partition changes; a link's flux is
// itself partition-independent (a ghost neighbor's exchanged values equal
// the local values it would have had); so one Apply is bitwise identical
// across any worker count AND any rank count.
// What the partition does change is only whether an element is interior or
// boundary, i.e. in which phase its — identically ordered — links run.
//
// Determinism rules for hook implementations:
//
//   - a hook invoked with element range E or links L may write only into
//     nodes of elements in E, or of the links' own elements (face lifts
//     accumulate into the link's own element);
//   - a face hook must process its links in the order given and finish
//     each link — flux and lift — before the next;
//   - hooks must route mesh operations through the Work they are handed
//     (per-worker scratch), and any user functions they call (velocity,
//     material models) must be pure;
//   - hooks must not touch the rank's Comm or Tracer — those belong to
//     the orchestrator goroutine.
type Kernel interface {
	// NumComps is the number of interleaved components per node of the
	// field array handed to Apply (1 for advect, 9 for seismic).
	NumComps() int
	// Volume computes volume terms for the given local element indices.
	Volume(w *Work, elems []int32)
	// InteriorFace computes and lifts the face fluxes of the given indices
	// into Mesh.Links, ascending, none of which reads ghost data.
	InteriorFace(w *Work, links []int32)
	// BoundaryFace computes and lifts the face fluxes of the given indices
	// into Mesh.Links, ascending, some of which read ghost data (valid
	// only after the exchange finished).
	BoundaryFace(w *Work, links []int32)
}

// kernelBatch is one deterministic unit of work: a contiguous element
// range plus the (contiguous, element-major) windows of intLinks and
// bndLinks belonging to those elements. Batches are fixed at mesh build
// time; since the per-element order does not depend on them, neither
// worker count nor timing can reach the result.
type kernelBatch struct {
	elems    []int32
	intLinks []int32
	bndLinks []int32
}

// batchElems is the element count of one batch: small enough that the
// residual, field and metric rows of its elements (about 20 kB each for
// the tricubic 9-component kernel) are still in a core's L2 cache when the
// face hook follows the volume hook — measured 3-5 % of the seismic step
// against one batch per rank, with 8 and 32 not separable from 16 — and
// many more batches than workers, so the pool's greedy claim evens out
// batches that cost unevenly (boundary elements do their face work in the
// second phase).
const batchElems = 16

// buildKernelDriver prepares the part of the Apply machinery that no
// rebuild changes: the span names and the prebuilt phase closures, so
// steady-state Apply calls allocate nothing.
func (m *Mesh) buildKernelDriver() {
	nw := len(m.works)
	m.spanA = make([]string, nw)
	m.spanB = make([]string, nw)
	for i := range m.spanA {
		m.spanA[i] = "pool:interior:w" + strconv.Itoa(i)
		m.spanB[i] = "pool:boundary:w" + strconv.Itoa(i)
	}
	m.phaseA = func(worker, batch int) {
		b := &m.batches[batch]
		w := m.works[worker]
		m.curK.Volume(w, b.elems)
		m.curK.InteriorFace(w, b.intLinks)
	}
	m.phaseB = func(worker, batch int) {
		b := &m.batches[batch]
		m.curK.BoundaryFace(m.works[worker], b.bndLinks)
	}
}

// buildBatches partitions the local elements into contiguous ranges of
// batchElems and attaches each range's link windows. Links are enumerated
// element-major (buildLinks), so intLinks and bndLinks are sorted by
// element and every batch's links form one contiguous window of each —
// located here with a single two-pointer sweep, referenced as zero-copy
// subslices.
func (m *Mesh) buildBatches() {
	for e := len(m.allElems); e < m.NumLocal; e++ {
		m.allElems = append(m.allElems, int32(e))
	}
	nb := max(1, (m.NumLocal+batchElems-1)/batchElems)
	m.batches = m.batches[:0]
	ii, bi := 0, 0
	for k := 0; k < nb; k++ {
		e0 := k * m.NumLocal / nb
		e1 := (k + 1) * m.NumLocal / nb
		i0 := ii
		for ii < len(m.intLinks) && int(m.Links[m.intLinks[ii]].Elem) < e1 {
			ii++
		}
		b0 := bi
		for bi < len(m.bndLinks) && int(m.Links[m.bndLinks[bi]].Elem) < e1 {
			bi++
		}
		m.batches = append(m.batches, kernelBatch{
			elems:    m.allElems[e0:e1],
			intLinks: m.intLinks[i0:ii],
			bndLinks: m.bndLinks[b0:bi],
		})
	}
}

// ForRange splits [0, n) into contiguous chunks and calls fn on each with
// the Work of whoever runs it: concurrently on the rank's pool when it has
// one, else inline. It is the counterpart of Apply for sweeps that are not
// kernel applications — frontends build their per-mesh tables with it, and
// fan out what an RHS does besides Apply — and must be called from the
// rank goroutine, outside any kernel application; chunks must write
// disjoint memory. fn is retained only for the call, so a caller that
// passes a prebuilt func value allocates nothing.
func (m *Mesh) ForRange(n int, fn func(w *Work, lo, hi int)) {
	if m.pool == nil {
		fn(m.works[0], 0, n)
		return
	}
	m.rangeN, m.rangeFn = n, fn
	m.pool.Run(min(n, rangeChunks*len(m.works)), m.rangeBody)
	m.rangeFn = nil
}

// rangeChunks is ForRange's chunk count per worker: a few, so that uneven
// chunks even out.
const rangeChunks = 4

// Apply runs one kernel application with the split-phase ghost exchange
// overlapped against the interior work: Start exchange, Volume of every
// element + faces of the interior ones, Finish, faces of the boundary
// elements. field is the local+ghost array the exchange fills (NumComps
// values per node); its local part must be filled before the call.
// Completing the exchange is the rank's "exchange" trace span, the one
// record of its time.
//
// With a per-rank pool the first phase's batches run on the workers while
// the orchestrator itself completes the exchange — Finish writes only the
// ghost region, first-phase batches read only the local region, so the two
// overlap without synchronization — and the second phase fans out after
// the join; a rank with no ghost-reading link has no second phase, so one
// join per Apply. Results are bitwise identical across any worker count
// and any rank count (see the Kernel contract). Apply must not be
// re-entered from a kernel hook.
func (m *Mesh) Apply(k Kernel, field []float64) {
	ex := m.StartGhostExchange(k.NumComps(), field)
	m.curK = k
	m.start(m.phaseA)
	m.F.Comm.Tracer().Span("exchange", ex.Finish)
	m.join(m.spanA)
	if len(m.bndLinks) > 0 {
		m.start(m.phaseB)
		m.join(m.spanB)
	}
	m.curK = nil
}

// start launches a phase over the batches: on the pool when the rank has
// one, else inline (start then returns with the phase complete).
func (m *Mesh) start(phase func(worker, batch int)) {
	if m.pool != nil {
		m.pool.Start(len(m.batches), phase)
		return
	}
	for b := range m.batches {
		phase(0, b)
	}
}

// join waits for the phase launched by start and records each worker's
// busy interval as a completed span on the rank's tracer. Workers cannot
// write to the rank-owned trace buffer themselves; the pool measures, the
// orchestrator records after the join.
func (m *Mesh) join(names []string) {
	if m.pool == nil {
		return
	}
	m.pool.Wait()
	tr := m.F.Comm.Tracer()
	for i, st := range m.pool.Stats() {
		if st.Batches == 0 {
			continue
		}
		tr.AddCompleted(names[i], trace.CatPhase, st.Start, st.Busy)
	}
}
