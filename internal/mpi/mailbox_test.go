package mpi

import "testing"

// take blocks until a message matching (from, tag) is available and
// removes it: a post + wait on a fresh slot.
func (m *mailbox) take(from, tag int) message {
	var s recvSlot
	m.post(from, tag, &s)
	msg, _ := m.wait(&s)
	return msg
}

// TestTakeClearsDrainedSlots asserts the mailbox queue's backing array
// holds no payload references after the queue drains: take must zero the
// vacated tail slot, or delivered octant slices stay reachable (and thus
// unreclaimable) long after delivery.
func TestTakeClearsDrainedSlots(t *testing.T) {
	m := newMailbox(&World{size: 1})
	const n = 8
	for i := 0; i < n; i++ {
		m.put(message{from: i, tag: 1, payload: []int64{int64(i)}})
	}
	backing := m.queue[:cap(m.queue)]
	for i := 0; i < n; i++ {
		if msg := m.take(AnySource, 1); msg.payload.([]int64)[0] != int64(i) {
			t.Fatalf("take %d returned %v", i, msg.payload)
		}
	}
	if len(m.queue) != 0 {
		t.Fatalf("queue not drained: len %d", len(m.queue))
	}
	for i, msg := range backing {
		if msg.payload != nil {
			t.Errorf("backing slot %d still references payload %v", i, msg.payload)
		}
	}
}

// TestTakeClearsSlotOnMiddleRemoval drains a message from the middle of
// the queue and checks the slot vacated at the tail is zeroed while the
// remaining messages survive in order.
func TestTakeClearsSlotOnMiddleRemoval(t *testing.T) {
	m := newMailbox(&World{size: 1})
	for i := 0; i < 3; i++ {
		m.put(message{from: 0, tag: i, payload: []int64{int64(i)}})
	}
	backing := m.queue[:cap(m.queue)]
	if msg := m.take(0, 1); msg.payload.([]int64)[0] != 1 {
		t.Fatalf("take(tag 1) returned %v", msg.payload)
	}
	if len(m.queue) != 2 {
		t.Fatalf("queue len = %d, want 2", len(m.queue))
	}
	if m.queue[0].tag != 0 || m.queue[1].tag != 2 {
		t.Fatalf("surviving queue out of order: %v", m.queue)
	}
	if backing[2].payload != nil {
		t.Errorf("vacated tail slot still references payload %v", backing[2].payload)
	}
}
