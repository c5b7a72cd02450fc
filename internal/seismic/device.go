package seismic

import (
	"time"

	"repro/internal/mangll"
)

// Device is the single-precision compute backend standing in for the
// paper's GPU version of dGea (§IV.B): the mesh is generated in parallel on
// the "host" (the forest algorithms), then the solution state and the
// kernels' tables — metric terms, material model, face geometry, the
// mesh's operators — are converted to single precision (the timed
// "transf" stage of Figure 10). Wave propagation then runs the host's
// kernels instantiated at float32, and each stage exchanges the ghost
// layer through the host, mirroring "transfer of shared data to CPUs and
// communication via MPI".
type Device struct {
	S *Solver

	Q []float32 // the head of k.buf, as Solver.Q is of the host's

	// TransferSec is the host->device transfer time (Figure 10 "transf").
	TransferSec float64

	k            *kernels[float32]
	w            *mangll.WorkOf[float32]
	rk           mangll.LSRK45Of[float32]
	elems, links []int32   // every local element and link, ascending
	host         []float64 // the local+ghost state staged through the host
	rhsFn        func(tt float64, u, du []float32)
}

// NewDevice transfers the solver's current state and mesh data to the
// device, timing the transfer.
func NewDevice(s *Solver) *Device {
	t0 := time.Now()
	m, k := s.Mesh, convertKernels[float32](&s.k)
	d := &Device{
		S:     s,
		Q:     k.buf[:len(s.Q)],
		k:     k,
		w:     mangll.NewWorkOf[float32](m),
		elems: iota32(m.NumLocal),
		links: iota32(len(m.Links)),
		host:  make([]float64, len(s.k.buf)),
	}
	d.rhsFn = d.rhs
	d.TransferSec = time.Since(t0).Seconds()
	return d
}

// convertKernels returns the host's kernel tables and local+ghost array
// (the state at its head) in precision T, with one worker's scratch.
func convertKernels[T mangll.Float](h *kernels[float64]) *kernels[T] {
	m := h.m
	k := &kernels[T]{
		m:       m,
		invJac:  mangll.Convert[T](h.invJac),
		mat:     convertRows(h.mat, convertMat[T]),
		faceGeo: convertRows(h.faceGeo, convertPoint[T]),
		fineGeo: convertRows(h.fineGeo, convertPoint[T]),
		fineMat: convertRows(h.fineMat, convertMat[T]),
		fineOff: h.fineOff,
		buf:     mangll.Convert[T](h.buf),
		ws:      []seisScratch[T]{newScratch[T](m.Np, m.Nf)},
	}
	for a := range k.gi {
		for b := range k.gi[a] {
			k.gi[a][b] = mangll.Convert[T](h.gi[a][b])
		}
	}
	return k
}

func convertRows[S, D any](rows []S, conv func(S) D) []D {
	out := make([]D, len(rows))
	for i, r := range rows {
		out[i] = conv(r)
	}
	return out
}

func convertMat[T mangll.Float](m nodeMat[float64]) nodeMat[T] {
	return nodeMat[T]{Rho: T(m.Rho), Lambda: T(m.Lambda), Mu: T(m.Mu), InvRho: T(m.InvRho), Vp: T(m.Vp)}
}

func convertPoint[T mangll.Float](p facePoint[float64]) facePoint[T] {
	return facePoint[T]{N: [3]T{T(p.N[0]), T(p.N[1]), T(p.N[2])}, Area: T(p.Area)}
}

func iota32(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// rhs evaluates dq/dt at time t on the device for q = d.Q: the local
// state is staged through the host for the ghost exchange, flushing
// subnormals to zero (the float32 kernels run several times slower on
// them), then every element's volume term and every link's face term run
// serially — each element gets its volume term and then its links in
// ascending order, as on the host — and the body force, if any, is added
// last.
func (d *Device) rhs(t float64, q, dq []float32) {
	k, m := d.k, d.S.Mesh
	for i, v := range q {
		if -0x1p-126 < v && v < 0x1p-126 {
			v, q[i] = 0, 0
		}
		d.host[i] = float64(v)
	}
	m.ExchangeGhost(NC, d.host)
	for i := len(q); i < len(k.buf); i++ {
		k.buf[i] = float32(d.host[i])
	}
	k.dq = dq
	k.volumeTerm(d.w, d.elems)
	k.surfaceTerm(d.w, d.links)
	if d.S.Source != nil {
		k.addSource(d.S.Source, t, 0, len(k.mat))
	}
}

// Step advances one LSRK4(5) step entirely on the device.
func (d *Device) Step(dt float64) {
	d.rk.Step(d.Q, d.S.Time, dt, d.rhsFn)
	d.S.Time += dt
}
