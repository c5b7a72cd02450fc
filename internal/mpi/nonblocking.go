package mpi

import "time"

// Request is the handle of a nonblocking point-to-point operation, the
// analogue of MPI_Request. Send requests (Isend) complete immediately
// under the runtime's buffered-send semantics; receive requests (Irecv)
// complete when a matching message arrives. A Request belongs to the rank
// goroutine that created it and is not safe for concurrent use.
//
// Nonblocking receives are the foundation of the split-phase ghost
// exchange: post the receives, compute on interior data while messages
// are in flight, then Wait. Because posting reserves the request's place
// in the matching order (see recvSlot), Irecv and blocking Recv calls on
// the same (source, tag) channel observe messages in exactly the order
// the receives were posted — MPI's non-overtaking rule.
type Request struct {
	c    *Comm
	slot recvSlot
	recv bool
	tag  int
	peer int // send: destination; recv: resolved source after completion

	// completed marks that the payload/source have been resolved and the
	// receive-side statistics recorded (exactly once, by Wait).
	completed bool
	payload   any
}

// Isend starts a nonblocking send of payload to rank `to` with the given
// tag (tag >= 0) and returns its request. The runtime buffers sends, so
// the operation is already complete: Wait returns immediately. Ownership
// of the payload transfers to the receiver at the Isend call; the sender
// must not mutate it afterwards.
func (c *Comm) Isend(to, tag int, payload any) *Request {
	if tag < 0 {
		panic("mpi: user tags must be >= 0")
	}
	c.send(to, tag, payload)
	return &Request{c: c, tag: tag, peer: to, completed: true}
}

// Irecv posts a nonblocking receive for a message with the given tag from
// rank `from` (or any rank if from == AnySource) and returns its request.
// The message is claimed by this request in posting order; call Wait to
// obtain the payload.
func (c *Comm) Irecv(from, tag int) *Request {
	if tag < 0 {
		panic("mpi: user tags must be >= 0")
	}
	r := &Request{c: c, recv: true, tag: tag, peer: AnySource}
	c.world.boxes[c.rank].post(from, tag, &r.slot)
	return r
}

// Wait blocks until the request completes and returns the received
// payload and source rank (nil and the destination rank for a send
// request). Only the time actually spent blocked inside Wait counts
// toward the rank's receive-wait statistics — time the message spent in
// flight while the rank was computing is exactly the overlap win and is
// deliberately not attributed as wait, and a message already there when
// Wait is called bills none. Wait is idempotent: calling it again returns
// the same payload.
func (r *Request) Wait() (payload any, source int) {
	if r.completed {
		return r.payload, r.peer
	}
	r.finish(r.c.world.boxes[r.c.rank].wait(&r.slot))
	return r.payload, r.peer
}

// finish resolves a completed receive exactly once: records the
// receive-side statistics with the given blocked duration and publishes
// the payload/source for Wait.
func (r *Request) finish(msg message, wait time.Duration) {
	r.c.received(r.tag, msg.payload, wait)
	r.payload = msg.payload
	r.peer = msg.from
	r.slot.msg = message{} // drop the duplicate payload reference
	r.completed = true
}
