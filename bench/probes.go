package main

import (
	"time"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mangll"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// Probes are isolated public calls on the objects a traced workload just
// built, so their sizes match the workload. Every probe is collective
// and rank 0 records.

const tagProbe = 900

// mpiProbes measures the runtime's primitives inside a two-rank world.
func mpiProbes(c *mpi.Comm, reps int, out *outcome) {
	root := c.Rank() == 0
	peer := 1 - c.Rank()

	// 8-byte ping-pong: half the round trip.
	pingpong := func(payload any, n int) float64 {
		return walled(c, func() {
			for i := 0; i < n; i++ {
				if root {
					c.Send(peer, tagProbe, payload)
					payload, _ = c.Recv(peer, tagProbe)
				} else {
					payload, _ = c.Recv(peer, tagProbe)
					c.Send(peer, tagProbe, payload)
				}
			}
		})
	}
	t := pingpong(int64(7), reps)
	if root {
		out.layer["mpi.pingpong_us"] = t / float64(2*reps) * 1e6
	}
	// 1 MiB []float64 handed back and forth, so ownership returns with
	// each reply. Payloads travel by reference: this measures the
	// per-message cost at a size where a copying backend would show.
	const streamLen = 1 << 17
	n := reps/16 + 1
	t = pingpong(make([]float64, streamLen), n)
	if root {
		out.layer["mpi.stream_mb_per_s"] = float64(2*n) * streamLen * 8 / 1e6 / t
	}
	t = walled(c, func() {
		for i := 0; i < reps; i++ {
			mpi.AllreduceSum(c, int64(i))
		}
	})
	if root {
		out.layer["mpi.allreduce_us"] = t / float64(reps) * 1e6
	}
	t = walled(c, func() {
		for i := 0; i < reps; i++ {
			c.Barrier()
		}
	})
	if root {
		out.layer["mpi.barrier_us"] = t / float64(reps) * 1e6
	}
}

// worldStartUS is the cost of starting and joining an empty two-rank
// world, which serve pays once per job attempt.
func worldStartUS(reps int) float64 {
	return medianOf(reps, func() { mpi.Run(2, func(*mpi.Comm) {}) }) * 1e6
}

// nullKernel is a Kernel that computes nothing: Mesh.Apply with it costs
// the exchange, the schedule and the pool joins only.
type nullKernel struct{ nc int }

func (k nullKernel) NumComps() int                    { return k.nc }
func (nullKernel) Volume(*mangll.Work, []int32)       {}
func (nullKernel) InteriorFace(*mangll.Work, []int32) {}
func (nullKernel) BoundaryFace(*mangll.Work, []int32) {}
func (nullKernel) Lift(*mangll.Work, []int32)         {}

// mangllProbes times the discretisation layer's public operators on the
// workload's own mesh. reps scales the repetition counts.
func mangllProbes(c *mpi.Comm, m *mangll.Mesh, reps int, out *outcome) {
	root := c.Rank() == 0
	elems := float64(m.F.NumGlobal())
	set := func(name string, v float64) {
		if root {
			out.layer[name] = v
		}
	}

	var builds []float64
	for i := 0; i < 3; i++ {
		builds = append(builds, walled(c, func() { mangll.NewMesh(m.F, m.G, m.L) }))
	}
	set("mangll.newmesh_ms_per_kelem", median(builds)*1e3/(elems/1e3))

	field := make([]float64, (m.NumLocal+m.NumGhost)*m.Np)
	for i := range field {
		field[i] = float64(i % 7)
	}
	// With one rank there is no ghost layer and nothing to measure; the
	// advect slice of the run supplies the figure instead.
	var t float64
	if ghosts := mpi.AllreduceSum(c, int64(m.NumGhost)); ghosts > 0 {
		t = walled(c, func() {
			for i := 0; i < reps; i++ {
				m.ExchangeGhost(1, field)
			}
		}) / float64(reps)
		set("mangll.exchange_us", t*1e6)
		set("mangll.exchange_mb_per_s", float64(ghosts)*float64(m.Np)*8/1e6/t)
	}
	t = walled(c, func() {
		for i := 0; i < reps; i++ {
			m.Apply(nullKernel{nc: 1}, field)
		}
	}) / float64(reps)
	set("mangll.apply_null_us", t*1e6)

	set("mangll.applyd_ns_per_dof", applyDNsPerDof(c, m, field))
	// The generic path a small-N specialisation must not slow: N = 6 on
	// a small mesh of its own.
	f6 := core.New(c, connectivity.UnitCube(), 2)
	m6 := mangll.NewMesh(f6, f6.Ghost(), mangll.NewLGL(6))
	set("mangll.applyd_n6_ns_per_dof", applyDNsPerDof(c, m6, make([]float64, m6.NumLocal*m6.Np)))
	// 2(N+1) flops per node and axis against one 8-byte load and store.
	set("mangll.applyd_flops_per_byte_computed", float64(2*m.Np1)/16)

	w := m.SerialWork()
	face := make([]float64, m.Nf)
	dc := make([]float64, m.NumLocal*m.Np)
	var links []*mangll.FaceLink
	for i := range m.Links {
		if m.Links[i].Kind != mangll.LinkBoundary {
			links = append(links, &m.Links[i])
		}
	}
	fdofs := float64(len(links) * m.Nf)
	t = walled(c, func() {
		for _, l := range links {
			w.FaceValues(l, 1, 0, field, face)
		}
	})
	set("mangll.facevalues_ns_per_fdof", t*1e9/fdofs)
	t = walled(c, func() {
		for _, l := range links {
			w.LiftFace(l, face, dc)
		}
	})
	set("mangll.liftface_ns_per_fdof", t*1e9/fdofs)

	// Transfer: refine every leaf, then coarsen back. TransferFields
	// takes leaf arrays, so the forest itself is left alone.
	coarse := m.F.Local
	fine := make([]octant.Octant, 0, 8*len(coarse))
	for _, o := range coarse {
		ch := o.Children()
		fine = append(fine, ch[:]...)
	}
	t = walled(c, func() {
		up := m.TransferFields(coarse, field[:len(coarse)*m.Np], fine, 1)
		m.TransferFields(fine, up, coarse, 1)
	})
	set("mangll.transfer_us_per_elem", t*1e6/float64(len(coarse)+len(fine)))

	var rk mangll.LSRK45
	u := field[:m.NumLocal*m.Np]
	rk.Step(u, 0, 0, func(float64, []float64, []float64) {})
	t = walled(c, func() {
		for i := 0; i < reps; i++ {
			rk.Step(u, 0, 0, func(float64, []float64, []float64) {})
		}
	}) / float64(reps)
	set("mangll.lsrk_ns_per_dof", t*1e9/float64(len(u)))
}

// applyDNsPerDof differentiates every local element along the three
// axes and returns rank 0's nanoseconds per node and axis.
func applyDNsPerDof(c *mpi.Comm, m *mangll.Mesh, field []float64) float64 {
	w := m.SerialWork()
	o := make([]float64, m.Np)
	sweep := func() {
		for e := 0; e < m.NumLocal; e++ {
			u := field[e*m.Np : (e+1)*m.Np]
			for a := 0; a < 3; a++ {
				w.ApplyD(a, u, o)
			}
		}
	}
	sweep()
	var best []float64
	for i := 0; i < 5; i++ {
		c.Barrier()
		t0 := time.Now()
		sweep()
		best = append(best, time.Since(t0).Seconds())
	}
	return median(best) * 1e9 / float64(3*m.NumLocal*m.Np)
}
