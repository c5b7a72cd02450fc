package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/mpi"
)

// config is what one workload run is given. The program under test sees
// none of it: workloads turn seed into generated inputs.
type config struct {
	seed    int64
	seconds float64 // length of the timed section
	trace   bool    // record spans and run the layer probes
	toy     bool    // smallest size that still runs every code path (tests, and the other workloads' slices of a traced run)
	tmp     string  // scratch directory owned by the caller
	corrupt bool    // expect deliberately wrong answers, so a check that never fires shows up as failed == 0
}

// minOps is the fewest timed operations a run takes however short
// seconds is: a traced run needs one traced and one untraced operation.
const minOps = 2

// outcome is what one workload run hands back.
type outcome struct {
	setups  []float64 // seconds from world start to ready, one per set-up repetition
	samples []float64 // µs per unit of work, one per timed operation run without spans; us_per_unit is their lower decile
	traced  []float64 // the same for operations run with spans on (traced runs alternate)
	units   float64   // units of work the timed operations completed
	wall    float64   // seconds the timed operations took

	attempted, failed int

	transport string
	workers   int
	notes     []string           // lines for the human report
	layer     map[string]float64 // per-layer metrics (traced runs)
	spans     []span
}

// sample files one timed operation's µs per unit under the operations
// run with spans or without, as the lane was set for it.
func (o *outcome) sample(ln *lane, us float64) {
	if ln.recording() {
		o.traced = append(o.traced, us)
	} else {
		o.samples = append(o.samples, us)
	}
}

func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// check counts one correctness check against the operation it belongs
// to; a failed check fails the operation once.
type opCheck struct {
	o      *outcome
	failed bool
}

func (o *outcome) op() *opCheck {
	o.attempted++
	return &opCheck{o: o}
}

func (c *opCheck) require(ok bool, format string, a ...any) {
	if ok || c.failed {
		return
	}
	c.failed = true
	c.o.failed++
	c.o.note("FAILED "+format, a...)
}

// more reports whether the timed section takes another operation. It is
// collective: rank 0 reads the clock and every rank gets its verdict.
func more(c *mpi.Comm, start time.Time, seconds float64, ops int) bool {
	return mpi.Bcast(c, 0, ops < minOps || time.Since(start).Seconds() < seconds)
}

// walled runs fn between barriers and returns the barrier-to-barrier
// wall: the slowest rank's time, as every rank reads it.
func walled(c *mpi.Comm, fn func()) float64 {
	c.Barrier()
	t0 := time.Now()
	fn()
	c.Barrier()
	return time.Since(t0).Seconds()
}

// medianOf times fn n times and returns the median in seconds.
func medianOf(n int, fn func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = time.Since(t0).Seconds()
	}
	return median(v)
}

// commTotals sums every rank's counters for one tag. Read the counters
// before reducing: the reduction itself sends messages.
func commTotals(c *mpi.Comm, tag int) (msgs, bytes int64) {
	ts := c.TagStat(tag)
	return mpi.AllreduceSum(c, ts.MsgsSent), mpi.AllreduceSum(c, ts.BytesSent)
}

// mix64 is the splitmix64 finaliser: the benchmark's only source of
// seeded choices that must agree on every rank without communication.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// settle collects the garbage of a finished phase (a set-up repetition,
// a reference run), so that peak memory is the workload's own and not
// whatever an earlier phase happened to leave uncollected.
func settle() { runtime.GC() }

// mallocs returns the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
