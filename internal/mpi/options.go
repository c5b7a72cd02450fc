package mpi

import (
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// RunOptions bundles everything optional a world can be run with. The zero
// value is a fault-free, unmetered run whose spans feed only the running
// aggregates of a store the world makes itself.
type RunOptions struct {
	// Tracer is the span store the ranks record into (must be sized to the
	// world); nil gives the world its own, which keeps one event per rank.
	Tracer *trace.Tracer
	// Plan installs a seeded fault-injection schedule.
	Plan *FaultPlan
	// Metrics attaches a live instrument registry: every rank records its
	// message/byte counters, receive-wait distribution, and fault events
	// into it as they happen (counter names mpi_msgs_sent, mpi_bytes_sent,
	// mpi_msgs_recvd, mpi_bytes_recvd; histogram mpi_recv_wait; fault_*
	// counters when a plan is installed). Unlike the rank-private Stats —
	// which are only safe to read after the run — the registry may be
	// scraped concurrently by an HTTP handler. Create it with
	// metrics.NewSharded(size) so each rank gets its own lane; recording
	// is a few atomic adds per message, and nil disables it entirely.
	Metrics *metrics.Registry
	// Workers is the per-rank worker-pool size for the mangll kernel
	// driver (Mesh.Apply): 1 runs kernels serially on the rank goroutine
	// (byte-identical to pre-pool builds), N > 1 fans element batches out
	// to N persistent workers per rank. Zero selects the process default:
	// the AMR_WORKERS environment variable if set, else 1. Results are
	// bitwise identical for every worker count.
	Workers int
}

// DefaultTransport names the one rank fabric: goroutine ranks with
// mutex-guarded mailboxes (DESIGN.md §2 says why there is only one).
const DefaultTransport = "chan"

// EnvTransport is the environment variable that once selected the rank
// fabric. Any value other than DefaultTransport is an error, so a setting
// meant for the removed backend fails loudly instead of being ignored.
const EnvTransport = "AMR_TRANSPORT"

// CheckTransportEnv rejects an EnvTransport setting that names anything
// but the one fabric. Every Run checks it; drivers call it up front to
// fail before any work.
func CheckTransportEnv() error {
	if v := os.Getenv(EnvTransport); v != "" && v != DefaultTransport {
		return fmt.Errorf("mpi: %s=%q: the only rank fabric is %q", EnvTransport, v, DefaultTransport)
	}
	return nil
}

// RunOpt executes fn on size ranks with the given options, panicking on
// error as Run does.
func RunOpt(size int, opts RunOptions, fn func(*Comm)) {
	err := RunErrOpt(size, opts, func(c *Comm) error {
		fn(c)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// worldMetrics holds the world's pre-resolved live instrument handles, so
// the per-message hot path is a nil check plus atomic adds — no registry
// map lookups, no allocation.
type worldMetrics struct {
	reg    *metrics.Registry
	shards int

	msgsSent, bytesSent   *metrics.Counter
	msgsRecvd, bytesRecvd *metrics.Counter
	recvWait              *metrics.Histogram

	drops, retries, dups, dedups *metrics.Counter
	delays, reorders, stalls     *metrics.Counter
}

func newWorldMetrics(reg *metrics.Registry, withFaults bool) *worldMetrics {
	m := &worldMetrics{
		reg:        reg,
		shards:     reg.Shards(),
		msgsSent:   reg.Counter("mpi_msgs_sent"),
		bytesSent:  reg.Counter("mpi_bytes_sent"),
		msgsRecvd:  reg.Counter("mpi_msgs_recvd"),
		bytesRecvd: reg.Counter("mpi_bytes_recvd"),
		recvWait:   reg.Histogram("mpi_recv_wait", metrics.UnitDuration),
	}
	if withFaults {
		m.drops = reg.Counter("fault_drops")
		m.retries = reg.Counter("fault_retries")
		m.dups = reg.Counter("fault_dups")
		m.dedups = reg.Counter("fault_dedups")
		m.delays = reg.Counter("fault_delays")
		m.reorders = reg.Counter("fault_reorders")
		m.stalls = reg.Counter("fault_stalls")
	}
	return m
}

// Metrics returns the live instrument registry the world was run with, or
// nil. Algorithm layers outside the runtime (e.g. the forest phases in
// internal/core) record their own instruments into it; pair with
// MetricsShard for the calling rank's lane.
func (c *Comm) Metrics() *metrics.Registry {
	if c.world.met == nil {
		return nil
	}
	return c.world.met.reg
}

// MetricsShard returns the calling rank's lane index in the instruments of
// Metrics. Zero when no registry is attached.
func (c *Comm) MetricsShard() int {
	if c.world.met == nil {
		return 0
	}
	return c.world.met.shard(c.rank)
}

// shard maps a rank to its counter lane, clamping when the registry was
// created with fewer shards than the world has ranks.
func (m *worldMetrics) shard(rank int) int {
	if rank < m.shards {
		return rank
	}
	return 0
}

func (m *worldMetrics) recordSend(rank int, bytes int64) {
	s := m.shard(rank)
	m.msgsSent.AddShard(s, 1)
	m.bytesSent.AddShard(s, bytes)
}

func (m *worldMetrics) recordRecv(rank int, bytes int64, wait int64) {
	s := m.shard(rank)
	m.msgsRecvd.AddShard(s, 1)
	m.bytesRecvd.AddShard(s, bytes)
	m.recvWait.ObserveShard(s, wait)
}
