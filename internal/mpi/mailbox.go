package mpi

import "sync"

// message is one in-flight point-to-point message. For eager messages, data
// is a private copy of the payload and done is nil. For rendezvous
// messages, chunks aliases the sender's buffers — one, or a vectored send's
// list, read in order (safe: the sender blocks on done until the receiver
// has copied them) — and done carries the completion virtual time back.
// matched and parked are guarded by the receiving mailbox's lock.
type message struct {
	src, tag int
	coll     collStamp // the sender's collective, zero kind outside one
	data     []byte
	chunks   [][]byte
	// arrival is the virtual time at which the payload is available at the
	// receiver (eager protocol), or the sender's virtual time at the moment
	// the rendezvous envelope was posted.
	arrival float64
	done    chan float64 // nil for eager
	// matched is set when a receive takes the message; parked while a
	// rendezvous sender sleeps waiting for that (see awaitRendezvous).
	matched, parked bool
}

// size is the payload's length in bytes.
func (m *message) size() int { return len(m.data) + chunksLen(m.chunks) }

// copyTo copies the payload into buf, which holds at least size() bytes:
// the receive half of a vectored send is this one copy.
func (m *message) copyTo(buf []byte) {
	copyChunks(buf[copy(buf, m.data):], m.chunks)
}

// chunksLen is the byte length of a chunk list.
func chunksLen(chunks [][]byte) int {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	return n
}

// copyChunks copies the chunks back to back into dst, which holds at least
// chunksLen(chunks) bytes.
func copyChunks(dst []byte, chunks [][]byte) {
	n := 0
	for _, ch := range chunks {
		n += copy(dst[n:], ch)
	}
}

// mailbox is one rank's unexpected-message queue. Only its owner receives
// from it; parked is set while the owner sleeps in await.
type mailbox struct {
	mu     sync.Mutex
	w      *World
	owner  int
	parked bool
	queue  []*message
}

// enqueue posts a message and wakes the owner if it is parked in await.
func (mb *mailbox) enqueue(m *message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	if mb.parked {
		mb.parked = false
		mb.w.unpark(mb.owner)
	}
	mb.mu.Unlock()
}

// enqueueCopy posts a private copy of payload, its chunks back to back, as
// an eager message — the copy behind Send's eager protocol and isend
// (vectored or not: the chunks are copied once, here). The copy is made
// before the mailbox lock is taken, so concurrent senders to one
// destination copy in parallel and the receiver is never blocked behind a
// large copy.
func (mb *mailbox) enqueueCopy(payload [][]byte, src, tag int, coll collStamp, arrival float64) {
	data := make([]byte, chunksLen(payload))
	copyChunks(data, payload)
	mb.enqueue(&message{src: src, tag: tag, coll: coll, data: data, arrival: arrival})
}

// match returns the index of the first queued message from src with tag,
// or -1. Caller holds mb.mu.
func (mb *mailbox) match(src, tag int) int {
	for i, m := range mb.queue {
		if m.src == src && m.tag == tag {
			return i
		}
	}
	return -1
}

// take removes and returns the message at index i, waking a rendezvous
// sender parked on it: the receive copies the payload and sends done next.
// Caller holds mb.mu.
func (mb *mailbox) take(i int) *message {
	m := mb.queue[i]
	mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
	m.matched = true
	if m.parked {
		m.parked = false
		mb.w.unpark(m.src)
	}
	return m
}

// remove withdraws a specific queued message (a sender abandoning a
// rendezvous). It reports whether the message was still unmatched.
func (mb *mailbox) remove(m *message) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.unqueue(m)
}

// unqueue is remove for a caller that holds mb.mu.
func (mb *mailbox) unqueue(m *message) bool {
	for i, q := range mb.queue {
		if q == m {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return true
		}
	}
	return false
}

// await blocks the owner until a matching message is queued, then removes
// and returns it (peek=false) or returns it in place (peek=true). It fails
// with ErrDeadlock if the world deadlocks and with ErrAborted if it dies.
// An owner inside a collective fails with a CollectiveMismatchError,
// leaving the message queued, if the match was sent by another collective.
func (mb *mailbox) await(src, tag int, peek bool) (*message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if i := mb.match(src, tag); i >= 0 {
			if c := mb.w.comms[mb.owner]; c.coll.kind != collNone && mb.queue[i].coll != c.coll {
				return nil, c.recvMismatch(mb.queue[i])
			}
			if peek {
				return mb.queue[i], nil
			}
			return mb.take(i), nil
		}
		if err := mb.w.halted(); err != nil {
			return nil, err
		}
		mb.parked = true
		mb.w.sleep(mb.owner, &mb.mu)
	}
}
