package mpi

import (
	"testing"
	"time"
)

// arrived reports, without blocking, whether the receive r posted has
// matched a message.
func arrived(r *Request) bool {
	m := r.c.world.boxes[r.c.rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	return r.slot.done
}

// TestIrecvOrderedBeforeBlockingRecv pins the non-overtaking rule across
// the two receive forms: an Irecv posted before a blocking Recv on the
// same (source, tag) channel must observe the earlier send, regardless of
// when the messages actually arrive relative to the posts.
func TestIrecvOrderedBeforeBlockingRecv(t *testing.T) {
	Run(2, func(c *Comm) {
		const tag = 7
		switch c.Rank() {
		case 0:
			c.Barrier() // rank 1 has posted its Irecv
			c.Send(1, tag, int64(1))
			c.Send(1, tag, int64(2))
		case 1:
			r := c.Irecv(0, tag)
			c.Barrier()
			// The blocking Recv is posted after the Irecv, so it must
			// yield the second message even though the first is likely
			// already queued or matched by the time it runs.
			pl, src := c.Recv(0, tag)
			if pl.(int64) != 2 || src != 0 {
				t.Errorf("blocking Recv got %v from %d, want 2 from 0", pl, src)
			}
			pl, src = r.Wait()
			if pl.(int64) != 1 || src != 0 {
				t.Errorf("Irecv got %v from %d, want 1 from 0", pl, src)
			}
		}
	})
}

// TestIrecvMatchesQueuedMessagesFIFO covers the other arrival order: both
// messages are already queued when the Irecv posts, so the Irecv must
// claim the older queued message and the subsequent blocking Recv the
// newer one.
func TestIrecvMatchesQueuedMessagesFIFO(t *testing.T) {
	Run(2, func(c *Comm) {
		const tag = 9
		switch c.Rank() {
		case 0:
			c.Send(1, tag, int64(10))
			c.Send(1, tag, int64(20))
			c.Barrier()
		case 1:
			c.Barrier() // both messages are in the queue
			r := c.Irecv(0, tag)
			if !arrived(r) {
				t.Error("Irecv against queued message should complete on posting")
			}
			pl, _ := c.Recv(0, tag)
			if pl.(int64) != 20 {
				t.Errorf("blocking Recv got %v, want 20", pl)
			}
			pl, _ = r.Wait()
			if pl.(int64) != 10 {
				t.Errorf("Irecv got %v, want 10", pl)
			}
		}
	})
}

// TestWaitMixedCompletionOrder posts receives from three peers that
// complete in reverse posting order (enforced by a relay chain) and
// checks that waiting on them in posting order resolves every payload to
// the right source.
func TestWaitMixedCompletionOrder(t *testing.T) {
	Run(4, func(c *Comm) {
		const tag = 3
		switch c.Rank() {
		case 0:
			reqs := []*Request{c.Irecv(1, tag), c.Irecv(2, tag), c.Irecv(3, tag)}
			c.Barrier()
			for _, r := range reqs {
				r.Wait()
			}
			for i, r := range reqs {
				pl, src := r.Wait() // idempotent second Wait
				if src != i+1 || pl.(int64) != int64(100*(i+1)) {
					t.Errorf("req %d resolved to %v from %d", i, pl, src)
				}
			}
		default:
			c.Barrier()
			// Completion order 3, 2, 1: each rank waits for a nudge from
			// the next-higher rank before sending.
			if c.Rank() < 3 {
				c.Recv(c.Rank()+1, tag+1)
			}
			c.Send(0, tag, int64(100*c.Rank()))
			if c.Rank() > 1 {
				c.Send(c.Rank()-1, tag+1, nil)
			}
		}
	})
}

// TestIsendCompletesImmediately verifies buffered-send request semantics.
func TestIsendCompletesImmediately(t *testing.T) {
	Run(2, func(c *Comm) {
		const tag = 4
		if c.Rank() == 0 {
			r := c.Isend(1, tag, int64(42))
			if !r.completed {
				t.Error("send request should complete immediately")
			}
			if pl, dst := r.Wait(); pl != nil || dst != 1 {
				t.Errorf("send Wait = (%v, %d), want (nil, 1)", pl, dst)
			}
		} else {
			if pl, _ := c.Recv(0, tag); pl.(int64) != 42 {
				t.Errorf("got %v", pl)
			}
		}
	})
}

// TestIrecvAnySource checks AnySource Irecv resolves the real source.
func TestIrecvAnySource(t *testing.T) {
	Run(3, func(c *Comm) {
		const tag = 6
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				r := c.Irecv(AnySource, tag)
				pl, src := r.Wait()
				if pl.(int64) != int64(src) {
					t.Errorf("payload %v from %d", pl, src)
				}
				seen[src] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen: %v", seen)
			}
		} else {
			c.Send(0, tag, int64(c.Rank()))
		}
	})
}

// TestNonblockingStats verifies receive-side accounting happens exactly
// once per request and that in-flight time is not billed as receive-wait
// when the message arrives before Wait is called: the message spends
// inFlight on its way while rank 0 blocks elsewhere, and only the moment
// Wait takes to collect it may count.
func TestNonblockingStats(t *testing.T) {
	const inFlight = 20 * time.Millisecond
	Run(2, func(c *Comm) {
		const tag = 8
		switch c.Rank() {
		case 0:
			r := c.Irecv(1, tag)
			c.Barrier() // rank 1 sends after this
			c.Recv(1, tag+1)
			// The tag-8 message is now guaranteed delivered (FIFO per
			// channel is per-tag, so synchronize via a sleep-free poll).
			for !arrived(r) {
				time.Sleep(time.Microsecond)
			}
			r.Wait()
			r.Wait() // idempotent: must not double count
			st := c.Stats()
			ts := st.ByTag[tag]
			if ts == nil || ts.MsgsRecvd != 1 {
				t.Fatalf("tag stats = %+v, want 1 recv", ts)
			}
			if ts.RecvWait != 0 {
				t.Errorf("arrived-before-Wait request billed %v wait, want none", ts.RecvWait)
			}
		case 1:
			c.Barrier()
			time.Sleep(inFlight)
			c.Send(0, tag, int64(1))
			c.Send(0, tag+1, nil)
		}
	})
}

// TestNonblockingChurn hammers the posted-receive machinery from many
// ranks at once: every rank posts a window of Irecvs from every other
// rank, sends its round payloads, computes nothing, and waits on each —
// run under -race this exercises put/post/wait interleavings.
func TestNonblockingChurn(t *testing.T) {
	const p = 8
	const rounds = 50
	Run(p, func(c *Comm) {
		const tag = 2
		r := c.Rank()
		reqs := make([]*Request, 0, p-1)
		for round := 0; round < rounds; round++ {
			reqs = reqs[:0]
			for peer := 0; peer < p; peer++ {
				if peer != r {
					reqs = append(reqs, c.Irecv(peer, tag))
				}
			}
			for peer := 0; peer < p; peer++ {
				if peer != r {
					c.Isend(peer, tag, int64(round*p+r))
				}
			}
			// Mix blocking ops onto a different tag mid-flight.
			if round%5 == 0 {
				c.Barrier()
			}
			for _, rq := range reqs {
				pl, src := rq.Wait()
				if pl.(int64) != int64(round*p+src) {
					t.Errorf("round %d: got %v from %d", round, pl, src)
				}
			}
		}
	})
}
