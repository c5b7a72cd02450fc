package mpi

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// This file is the runtime conformance suite: every semantic guarantee
// the message runtime documents is pinned here, using only the public
// API, so the mailbox internals are free as long as the observable
// contract holds.

// onFabric runs body as a subtest named after the one rank fabric, the
// name Comm.Transport() reports.
func onFabric(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	t.Run(DefaultTransport, body)
}

// TestConformanceRegistry pins that the fabric's own name is the only one
// accepted: an AMR_TRANSPORT naming anything else fails every Run with an
// error naming the variable, and the fabric reports its name.
func TestConformanceRegistry(t *testing.T) {
	t.Setenv(EnvTransport, "shm") // the removed shared-memory backend
	err := RunErr(2, func(c *Comm) error { return nil })
	if err == nil || !strings.Contains(err.Error(), EnvTransport) {
		t.Fatalf("AMR_TRANSPORT=shm: got %v, want an error naming %s", err, EnvTransport)
	}
	onFabric(t, func(t *testing.T) {
		t.Setenv(EnvTransport, DefaultTransport)
		Run(3, func(c *Comm) {
			if c.Transport() != DefaultTransport {
				t.Errorf("Comm.Transport() = %q, want %q", c.Transport(), DefaultTransport)
			}
		})
	})
}

// TestConformanceFIFOPerChannel pins the per-(source,tag) FIFO rule: a
// burst of messages on one channel is received in send order.
func TestConformanceFIFOPerChannel(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		const n = 500
		Run(2, func(c *Comm) {
			switch c.Rank() {
			case 0:
				for i := 0; i < n; i++ {
					c.Send(1, 7, i)
				}
			case 1:
				for i := 0; i < n; i++ {
					got, _ := c.Recv(0, 7)
					if got.(int) != i {
						t.Errorf("message %d arrived out of order: got %v", i, got)
						return
					}
				}
			}
		})
	})
}

// TestConformanceNonOvertaking pins MPI's non-overtaking rule across a
// mix of posted Irecvs and blocking Recvs on the same channel: messages
// match receives in posting order even when the Irecvs are posted first
// and waited on last.
func TestConformanceNonOvertaking(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		Run(2, func(c *Comm) {
			switch c.Rank() {
			case 0:
				for i := 0; i < 6; i++ {
					c.Send(1, 3, i)
				}
			case 1:
				r0 := c.Irecv(0, 3)
				r1 := c.Irecv(0, 3)
				v2, _ := c.Recv(0, 3) // third posted => third message
				v3, _ := c.Recv(0, 3)
				r4 := c.Irecv(0, 3)
				v5, _ := c.Recv(0, 3)
				v0, _ := r0.Wait()
				v1, _ := r1.Wait()
				v4, _ := r4.Wait()
				got := []int{v0.(int), v1.(int), v2.(int), v3.(int), v4.(int), v5.(int)}
				for i, v := range got {
					if v != i {
						t.Errorf("posting order violated: got %v", got)
						return
					}
				}
			}
		})
	})
}

// TestConformanceAnySource pins wildcard receives: every sender's message
// is received exactly once, and the reported sources are correct.
func TestConformanceAnySource(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		const p = 6
		Run(p, func(c *Comm) {
			if c.Rank() == 0 {
				seen := map[int]int{}
				for i := 0; i < p-1; i++ {
					v, src := c.Recv(AnySource, 9)
					if v.(int) != src*11 {
						t.Errorf("payload %v does not match source %d", v, src)
					}
					seen[src]++
				}
				for r := 1; r < p; r++ {
					if seen[r] != 1 {
						t.Errorf("source %d received %d times", r, seen[r])
					}
				}
			} else {
				c.Send(0, 9, c.Rank()*11)
			}
		})
	})
}

// TestConformanceSelfSend pins that a rank can send to itself (the
// collectives' degenerate P=1 paths rely on loopback working).
func TestConformanceSelfSend(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		Run(3, func(c *Comm) {
			r := c.Irecv(c.Rank(), 4)
			c.Send(c.Rank(), 4, c.Rank()+100)
			v, src := r.Wait()
			if v.(int) != c.Rank()+100 || src != c.Rank() {
				t.Errorf("self-send: got %v from %d", v, src)
			}
		})
	})
}

// TestConformanceStatsExactlyOnce pins the accounting contract: across a
// world, messages sent equals messages received, per tag.
func TestConformanceStatsExactlyOnce(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		const p = 5
		stats := make([]Stats, p)
		Run(p, func(c *Comm) {
			chaosWorkload(c)
			stats[c.Rank()] = c.Stats()
		})
		var sent, recvd, bsent, brecvd int64
		for _, s := range stats {
			sent += s.MsgsSent
			recvd += s.MsgsRecvd
			bsent += s.BytesSent
			brecvd += s.BytesRecvd
		}
		if sent != recvd || bsent != brecvd {
			t.Errorf("world totals unbalanced: sent %d msgs/%d B, recvd %d msgs/%d B",
				sent, bsent, recvd, brecvd)
		}
		if sent == 0 {
			t.Error("workload sent nothing; test is vacuous")
		}
	})
}

// TestConformanceCollectives pins correctness of every collective at
// awkward (non-power-of-two) world sizes.
func TestConformanceCollectives(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		for _, p := range []int{1, 3, 7} {
			Run(p, func(c *Comm) {
				r := c.Rank()
				if got := AllreduceSum(c, int64(r+1)); got != int64(p*(p+1)/2) {
					t.Errorf("P=%d AllreduceSum = %d", p, got)
				}
				if got := Bcast(c, p-1, r*3); got != (p-1)*3 {
					t.Errorf("P=%d Bcast = %d", p, got)
				}
				g := Gather(c, 0, r*r)
				if r == 0 {
					for i, v := range g {
						if v != i*i {
							t.Errorf("P=%d Gather[%d] = %d", p, i, v)
						}
					}
				}
				ag := Allgather(c, r+5)
				for i, v := range ag {
					if v != i+5 {
						t.Errorf("P=%d Allgather[%d] = %d", p, i, v)
					}
				}
				if got := ExScan(c, 1, func(a, b int) int { return a + b }); got != r {
					t.Errorf("P=%d ExScan at rank %d = %d", p, r, got)
				}
				out := make([]int, p)
				for i := range out {
					out[i] = r*100 + i
				}
				tr := alltoall(c, out, 60)
				for i, v := range tr {
					if v != i*100+r {
						t.Errorf("P=%d Alltoall[%d] = %d at rank %d", p, i, v, r)
					}
				}
				c.Barrier()
			})
		}
	})
}

// TestConformanceFloatBits drills into the reduction determinism with
// values chosen so any change of association changes the bits: a chaos
// plan that delays and reorders every link's traffic must not move a bit.
func TestConformanceFloatBits(t *testing.T) {
	const p = 7
	var ref []uint64
	for _, plan := range []*FaultPlan{nil, chaosPlan(11)} {
		bits := make([]uint64, p)
		RunOpt(p, RunOptions{Plan: plan}, func(c *Comm) {
			v := math.Ldexp(1+float64(c.Rank()), -c.Rank()) // wildly varying magnitudes
			s := AllreduceSumFloat(c, v)
			e := ExScan(c, v, func(a, b float64) float64 { return a + b })
			bits[c.Rank()] = math.Float64bits(s) ^ math.Float64bits(e)<<1
		})
		if ref == nil {
			ref = bits
			continue
		}
		for r := range bits {
			if bits[r] != ref[r] {
				t.Errorf("rank %d: float bits differ under chaos: %x vs %x", r, bits[r], ref[r])
			}
		}
	}
}

// TestConformanceSparseExchange pins the neighbor-exchange pattern used
// by the ghost layer: arbitrary sparse out-maps, correct in-maps.
func TestConformanceSparseExchange(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		const p = 6
		Run(p, func(c *Comm) {
			r := c.Rank()
			out := map[int][]int{}
			for d := 1; d <= 3; d++ {
				out[(r+d*d)%p] = []int{r, d}
			}
			in := SparseExchange(c, out, 70)
			want := map[int][]int{}
			for s := 0; s < p; s++ {
				for d := 1; d <= 3; d++ {
					if (s+d*d)%p == r {
						want[s] = []int{s, d}
					}
				}
			}
			if len(in) != len(want) {
				t.Errorf("rank %d: got %d sources, want %d", r, len(in), len(want))
			}
			srcs := make([]int, 0, len(in))
			for s := range in {
				srcs = append(srcs, s)
			}
			sort.Ints(srcs)
			for _, s := range srcs {
				w, ok := want[s]
				if !ok || fmt.Sprint(in[s]) != fmt.Sprint(w) {
					t.Errorf("rank %d: source %d got %v want %v", r, s, in[s], w)
				}
			}
		})
	})
}

// TestConformanceChaosBitwise pins that the fault layer composes with
// the runtime: a seeded chaos plan leaves results bitwise-identical to
// the fault-free run, and duplicates are deduped exactly once.
func TestConformanceChaosBitwise(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		const p = 5
		base := make([]string, p)
		Run(p, func(c *Comm) { base[c.Rank()] = chaosWorkload(c) })
		plan := chaosPlan(42)
		got := make([]string, p)
		var comm *Comm
		RunOpt(p, RunOptions{Plan: plan}, func(c *Comm) {
			got[c.Rank()] = chaosWorkload(c)
			if c.Rank() == 0 {
				comm = c
			}
		})
		// Read after the run: late duplicate timers only join at teardown.
		st := comm.FaultStats()
		for r := 0; r < p; r++ {
			if got[r] != base[r] {
				t.Errorf("rank %d: chaos result diverges", r)
			}
		}
		if st.Drops == 0 && st.Dups == 0 && st.Delays == 0 && st.Reorders == 0 {
			t.Errorf("chaos plan injected nothing: %+v", st)
		}
		if st.Dups != st.Dedups {
			t.Errorf("dups=%d dedups=%d; duplicate accounting leaked", st.Dups, st.Dedups)
		}
	})
}

// TestConformanceCrashUnwinds pins that an injected crash surfaces as a
// *CrashError without deadlocking peers blocked in collectives: the
// abort must wake every mailbox.
func TestConformanceCrashUnwinds(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		plan := chaosPlan(3)
		plan.CrashRank = 2
		plan.CrashStep = 2
		done := make(chan error, 1)
		go func() {
			done <- RunErrOpt(4, RunOptions{Plan: plan}, func(c *Comm) error {
				for step := 1; step <= 4; step++ {
					c.CrashPoint(step)
					AllreduceSum(c, int64(step))
					c.Send((c.Rank()+1)%c.Size(), 5, step)
					c.Recv((c.Rank()+c.Size()-1)%c.Size(), 5)
				}
				return nil
			})
		}()
		select {
		case err := <-done:
			var ce *CrashError
			if !errors.As(err, &ce) || ce.Rank != 2 || ce.Step != 2 {
				t.Fatalf("want crash at rank 2 step 2, got %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("injected crash deadlocked the world")
		}
	})
}

// TestConformancePanicUnblocksPeers pins panic propagation while peers
// sit blocked in Recv — the abort must wake every mailbox.
func TestConformancePanicUnblocksPeers(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			Run(3, func(c *Comm) {
				if c.Rank() == 0 {
					time.Sleep(5 * time.Millisecond)
					panic("kaboom")
				}
				c.Recv(0, 1) // never satisfied
			})
		}()
		select {
		case p := <-got:
			if p != "kaboom" {
				t.Fatalf("want panic to propagate, got %v", p)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("rank panic deadlocked peers")
		}
	})
}

// TestConformanceChurn hammers the runtime with many short-lived worlds —
// the shape that flushes out leaked goroutines and unparked receivers
// (run under -race in CI).
func TestConformanceChurn(t *testing.T) {
	onFabric(t, func(t *testing.T) {
		for round := 0; round < 8; round++ {
			Run(4, func(c *Comm) {
				for i := 0; i < 5; i++ {
					AllreduceSum(c, int64(c.Rank()))
					c.Send((c.Rank()+1)%c.Size(), 8, i)
					c.Recv((c.Rank()+c.Size()-1)%c.Size(), 8)
				}
			})
		}
	})
}
