package mpi

import (
	"sync"
	"time"
)

// message is one in-flight point-to-point message. For eager messages, data
// is a private copy staged in the receiving mailbox's slab (slab non-nil)
// and done is nil. For rendezvous messages, chunks aliases the sender's
// buffers — one, or a vectored send's list, read in order (safe: the sender
// blocks on done until the receiver has copied them) — and done carries the
// completion virtual time back.
type message struct {
	src, tag int
	data     []byte
	chunks   [][]byte
	// arrival is the virtual time at which the payload is available at the
	// receiver (eager protocol), or the sender's virtual time at the moment
	// the rendezvous envelope was posted.
	arrival float64
	done    chan float64 // nil for eager
	slab    *msgSlab     // eager staging slab holding data; nil for rendezvous
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

// consumed releases an eager message's slab chunk once the receiver has
// copied the payload out. Idempotent; a no-op for rendezvous messages.
func (m *message) consumed(mb *mailbox) {
	if m.slab != nil {
		mb.release(m.slab)
		m.slab = nil
		m.data = nil
	}
}

// msgSlabSize is the staging slab granularity: eager payloads pack back to
// back into slabs of this size (or one oversized slab for a larger
// message), so steady-state eager traffic allocates one slab per ~64 KiB
// of payload instead of one buffer per message.
const msgSlabSize = 64 << 10

// msgSlab is one refcounted staging buffer. live counts the queued-or-
// being-received messages whose payloads it holds; when live drops to
// zero the slab's bytes are dead and it can be rewound and reused.
type msgSlab struct {
	buf  []byte
	used int
	live int
}

// mailbox is one rank's unexpected-message queue plus the wait machinery
// and the eager staging slabs. cur receives new payloads; spare is the
// most recently drained slab, kept for reuse so a ping-pong workload
// recycles two slabs forever.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []*message
	cur   *msgSlab
	spare *msgSlab
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// enqueue posts a message and wakes any waiting receiver.
func (mb *mailbox) enqueue(m *message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// enqueueCopy stages a private copy of payload, its chunks back to back, in
// the mailbox's slab and posts it as an eager message — the
// zero-per-message-allocation path behind Send's eager protocol and isend
// (vectored or not: the chunks are copied once, here). Only the chunk
// reservation runs under the mailbox lock; the memcpy itself happens
// outside it, so concurrent senders to one destination copy in parallel and
// the receiver is never blocked behind a large copy. That is safe because
// the chunk is
// exclusively owned between reserve and enqueue: nobody else writes it (the
// slab's used mark is past it), and no receiver sees it until the message
// is queued — the enqueue's lock handoff publishes the copied bytes.
func (mb *mailbox) enqueueCopy(payload [][]byte, src, tag int, arrival float64) {
	mb.mu.Lock()
	chunk, slab := mb.reserve(chunksLen(payload))
	mb.mu.Unlock()
	copyChunks(chunk, payload)
	mb.enqueue(&message{
		src: src, tag: tag, data: chunk, arrival: arrival, slab: slab,
	})
}

// reserve carves an n-byte chunk out of the current slab, opening a fresh
// (or the spare) slab when it does not fit. Caller holds mb.mu.
func (mb *mailbox) reserve(n int) ([]byte, *msgSlab) {
	if mb.cur == nil || mb.cur.used+n > len(mb.cur.buf) {
		if mb.spare != nil && n <= len(mb.spare.buf) {
			mb.cur, mb.spare = mb.spare, nil
		} else {
			size := msgSlabSize
			if n > size {
				size = n
			}
			mb.cur = &msgSlab{buf: make([]byte, size)}
		}
	}
	s := mb.cur
	chunk := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	s.live++
	return chunk, s
}

// release returns one chunk to its slab; a fully drained
// standard-granularity slab is rewound for reuse (in place if it is still
// current, as the spare otherwise). An oversized slab exists for one jumbo
// payload — retaining it anywhere (spare or cur) would pin
// largest-ever-message bytes per mailbox for the world's lifetime, so a
// drained one is dropped to the garbage collector instead.
func (mb *mailbox) release(s *msgSlab) {
	mb.mu.Lock()
	s.live--
	if s.live == 0 {
		switch {
		case len(s.buf) != msgSlabSize:
			if s == mb.cur {
				mb.cur = nil
			}
		default:
			s.used = 0
			if s != mb.cur && mb.spare == nil {
				mb.spare = s
			}
		}
	}
	mb.mu.Unlock()
}

// wakeAll prods blocked receivers so they can re-check deadlines/aborts.
func (mb *mailbox) wakeAll() { mb.cond.Broadcast() }

// match returns the index of the first queued message matching src/tag
// (with wildcards), or -1. Caller holds mb.mu.
func (mb *mailbox) match(src, tag int) int {
	for i, m := range mb.queue {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			return i
		}
	}
	return -1
}

// take removes and returns the message at index i. Caller holds mb.mu.
func (mb *mailbox) take(i int) *message {
	m := mb.queue[i]
	mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
	return m
}

// remove withdraws a specific queued message (a sender abandoning a
// rendezvous). It reports whether the message was still unmatched.
func (mb *mailbox) remove(m *message) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, q := range mb.queue {
		if q == m {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return true
		}
	}
	return false
}

// await blocks until a matching message is queued, then removes and returns
// it (peek=false) or returns it in place (peek=true). It fails with
// ErrDeadlock after the world timeout and with ErrAborted if the world dies.
func (mb *mailbox) await(w *World, src, tag int, peek bool) (*message, error) {
	deadline := time.Now().Add(w.timeout)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if i := mb.match(src, tag); i >= 0 {
			if peek {
				return mb.queue[i], nil
			}
			return mb.take(i), nil
		}
		if w.aborted() {
			return nil, ErrAborted
		}
		if time.Now().After(deadline) {
			return nil, ErrDeadlock
		}
		mb.cond.Wait()
	}
}
