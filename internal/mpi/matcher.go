package mpi

// matcher is a mailbox's tag-matching engine: an unbounded queue of
// unclaimed messages, the list of posted receives in posting order, and
// (when a fault plan is installed) the per-source reassembly windows that
// restore per-link order and exactly-once delivery before a message is
// matched. The matcher itself is synchronization-free; the mailbox mutex
// serializes it (senders deliver directly into the engine).
//
// Invariant: no queued message matches any posted slot. deliver matches a
// new message against the posted slots before queueing it, and post
// matches a new slot against the queue before registering it, so a
// matching pair can never coexist.
type matcher struct {
	queue  []message
	posted []*recvSlot

	// reorder is the per-source reassembly window of the fault layer
	// (nil without a plan): it restores per-link send order and
	// exactly-once delivery before a message reaches the matching engine,
	// so injected drops, duplicates, and reorderings are invisible to the
	// FIFO and non-overtaking guarantees.
	reorder []linkRecv
}

// linkRecv tracks one incoming link's reassembly: the next expected
// sequence number and any out-of-order arrivals held back until the gap
// fills.
type linkRecv struct {
	next uint64
	held map[uint64]message
}

// deliver feeds one message into the matching engine.
func (m *matcher) deliver(msg message) {
	for i, s := range m.posted {
		if s.tag == msg.tag && (s.from == AnySource || s.from == msg.from) {
			// Earliest-posted matching receive wins. Shift the tail down
			// and zero the vacated slot so the backing array drops its
			// reference to the completed slot.
			copy(m.posted[i:], m.posted[i+1:])
			m.posted[len(m.posted)-1] = nil
			m.posted = m.posted[:len(m.posted)-1]
			s.msg = msg
			s.done = true
			return
		}
	}
	m.queue = append(m.queue, msg)
}

// deliverSeq feeds one sequenced message of the fault layer through the
// (source -> this rank) reassembly window: duplicates are discarded, gaps
// hold later messages back, and in-order messages drain the held backlog,
// so the matching engine observes exactly the fault-free delivery
// sequence.
func (m *matcher) deliverSeq(msg message, seq uint64, f *faultState) {
	lr := &m.reorder[msg.from]
	switch {
	case seq < lr.next:
		f.dedup(msg.from)
		return
	case seq > lr.next:
		if lr.held == nil {
			lr.held = make(map[uint64]message)
		}
		if _, dup := lr.held[seq]; dup {
			f.dedup(msg.from)
			return
		}
		lr.held[seq] = msg
		return
	}
	m.deliver(msg)
	lr.next++
	for {
		nm, ok := lr.held[lr.next]
		if !ok {
			break
		}
		delete(lr.held, lr.next)
		m.deliver(nm)
		lr.next++
	}
}

// post registers a receive for (from, tag). If a matching message is
// already queued the slot completes immediately (FIFO per channel);
// otherwise the slot joins the posted list in posting order. The slot must
// be zeroed (done=false) by the caller before posting.
func (m *matcher) post(from, tag int, s *recvSlot) {
	s.from, s.tag = from, tag
	for i, msg := range m.queue {
		if msg.tag == tag && (from == AnySource || msg.from == from) {
			// Zero the vacated slot so the backing array drops its
			// reference to the delivered payload (octant slices must not
			// stay reachable through drained queues).
			copy(m.queue[i:], m.queue[i+1:])
			m.queue[len(m.queue)-1] = message{}
			m.queue = m.queue[:len(m.queue)-1]
			s.msg = msg
			s.done = true
			return
		}
	}
	m.posted = append(m.posted, s)
}
