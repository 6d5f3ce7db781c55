package mpi

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
)

// Status reports the outcome of a receive or probe, mirroring MPI_Status.
type Status struct {
	Source int
	Tag    int
	// Count is the message payload size in bytes (MPI_Get_count with
	// MPI_BYTE).
	Count int
}

// Send transmits buf to rank dst with the given tag. Messages up to the
// eager limit are buffered and Send returns immediately (in virtual time it
// pays only the injection overhead); larger messages use the rendezvous
// protocol and block until the matching Recv has copied the data, exactly
// the semantics that make unordered blocking sends deadlock-prone in MPI.
func (c *Comm) Send(buf []byte, dst, tag int) error {
	if dst < 0 || dst >= c.world.n {
		return fmt.Errorf("%w: send to %d of %d", ErrRank, dst, c.world.n)
	}
	d := c.faultPoint(OpSend, dst, tag)
	c.bytesSent += int64(len(buf))
	c.msgsSent++
	if d.Action == FaultDrop {
		// A lost message: the sender pays its injection overhead and moves
		// on none the wiser; nothing reaches the mailbox.
		c.clock.Advance(simtime.Transport, c.sendOverhead(dst))
		return nil
	}
	payload := buf
	var extra float64
	switch d.Action {
	case FaultCorrupt:
		payload = corruptCopy([][]byte{buf}, d.Bit)
	case FaultDelay:
		extra = d.Delay
	}
	if len(buf) <= eagerLimit {
		// Sender pays only the injection overhead for eager messages; the
		// payload arrives one transfer time after that, as a private copy.
		c.clock.Advance(simtime.Transport, c.sendOverhead(dst))
		arrival := c.clock.Now() + extra + c.world.cfg.MsgTime(c.rank, dst, len(buf))
		c.world.boxes[dst].enqueueCopy([][]byte{payload}, c.rank, tag, c.coll, arrival)
		return nil
	}
	m := &message{
		src: c.rank, tag: tag, coll: c.coll, chunks: [][]byte{payload},
		arrival: c.clock.Now() + extra,
		done:    make(chan float64, 1),
	}
	box := c.world.boxes[dst]
	box.enqueue(m)
	return c.awaitRendezvous(box, m, OpSend, dst, tag)
}

// awaitRendezvous blocks the sender of rendezvous message m, queued in box,
// until a receive has copied the payload, and advances the clock to the
// transfer's end — Send's wait and SendRecv's harvest, published as op
// toward dst. If the world halts first, the message is withdrawn so nobody
// reads a buffer the caller is free to reuse.
func (c *Comm) awaitRendezvous(box *mailbox, m *message, op OpKind, dst, tag int) error {
	bop := c.setBlocked(op, dst, tag, "")
	defer c.clearBlocked()
	box.mu.Lock()
	for !m.matched {
		if err := c.world.halted(); err != nil {
			box.unqueue(m)
			box.mu.Unlock()
			if errors.Is(err, ErrDeadlock) {
				err = c.deadlockError(*bop)
			}
			return err
		}
		m.parked = true
		c.world.sleep(c.rank, &box.mu)
	}
	box.mu.Unlock()
	// Matched: the receiver is copying and sends the end time next. A send
	// that completes after the world aborted fails with it.
	end := <-m.done
	if err := c.world.halted(); errors.Is(err, ErrAborted) {
		return err
	}
	c.clock.AdvanceTo(end)
	return nil
}

// sendOverhead is the sender-side injection overhead toward dst.
func (c *Comm) sendOverhead(dst int) float64 {
	if c.world.cfg.SameNode(c.rank, dst) {
		return c.world.cfg.IntraLatency
	}
	return c.world.cfg.InterLatency
}

// isend transmits one message, the chunks back to back, without ever
// blocking, regardless of size (a private buffered send used by collective
// algorithms, as real MPI implementations use nonblocking internals). The
// payload travels as a private copy.
func (c *Comm) isend(dst, tag int, chunks ...[]byte) {
	c.isendDecided(chunks, dst, tag, c.faultPoint(OpSend, dst, tag))
}

// isendDecided is isend with the fault decision already made — SendRecv
// charges its fault point to OpSendRecv and routes the verdict here for
// eager-sized payloads.
func (c *Comm) isendDecided(chunks [][]byte, dst, tag int, d FaultDecision) {
	size := chunksLen(chunks)
	c.bytesSent += int64(size)
	c.msgsSent++
	c.clock.Advance(simtime.Transport, c.sendOverhead(dst))
	if d.Action == FaultDrop {
		return
	}
	payload := chunks
	var extra float64
	switch d.Action {
	case FaultCorrupt:
		payload = [][]byte{corruptCopy(chunks, d.Bit)}
	case FaultDelay:
		extra = d.Delay
	}
	arrival := c.clock.Now() + extra + c.world.cfg.MsgTime(c.rank, dst, size)
	c.world.boxes[dst].enqueueCopy(payload, c.rank, tag, c.coll, arrival)
}

// Recv blocks until a message from src with tag arrives, copies its payload
// into buf, and returns the status. A message longer than buf fails with
// ErrTruncate.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	m, err := c.take(src, tag)
	if err != nil {
		return Status{}, err
	}
	st := Status{Source: m.src, Tag: m.tag, Count: m.size()}
	if st.Count > len(buf) {
		if m.done != nil {
			m.done <- c.clock.Now() // release the blocked sender regardless
		}
		return st, fmt.Errorf("%w: got %d bytes, buffer holds %d", ErrTruncate, st.Count, len(buf))
	}
	m.copyTo(buf)
	c.complete(m)
	return st, nil
}

// take is a receive's first step: it blocks until a message from src with
// tag arrives and removes it from the mailbox. A rendezvous sender stays
// held until complete releases it, so until then the message's chunks are
// the sender's own buffers, safe to read in place.
func (c *Comm) take(src, tag int) (*message, error) {
	if src < 0 || src >= c.world.n {
		return nil, fmt.Errorf("%w: recv from %d of %d", ErrRank, src, c.world.n)
	}
	c.faultPoint(OpRecv, src, tag) // receives only crash; other verdicts are send-side
	bop := c.setBlocked(OpRecv, src, tag, "")
	defer c.clearBlocked()
	m, err := c.world.boxes[c.rank].await(src, tag, false)
	if err != nil {
		if errors.Is(err, ErrDeadlock) {
			err = c.deadlockError(*bop)
		}
		return nil, err
	}
	return m, nil
}

// complete is a taken message's last step, once its payload has been
// consumed: it advances the clock to the transfer's end and releases a
// rendezvous sender.
func (c *Comm) complete(m *message) {
	if m.done != nil {
		// Rendezvous: the transfer starts when both sides are ready.
		start := simtime.Max(m.arrival, c.clock.Now())
		end := start + c.world.cfg.MsgTime(m.src, c.rank, m.size())
		c.clock.AdvanceTo(end)
		m.done <- end
	} else {
		// Eager: payload was already on its way; wait for its arrival.
		c.clock.AdvanceTo(m.arrival)
	}
}

// Probe blocks until a matching message is available without consuming it,
// so the caller can size a receive buffer first (MPI_Probe + MPI_Get_count,
// the pattern the paper describes for unknown-size geometry fragments).
func (c *Comm) Probe(src, tag int) (Status, error) {
	if src < 0 || src >= c.world.n {
		return Status{}, fmt.Errorf("%w: probe from %d of %d", ErrRank, src, c.world.n)
	}
	c.faultPoint(OpProbe, src, tag)
	bop := c.setBlocked(OpProbe, src, tag, "")
	defer c.clearBlocked()
	m, err := c.world.boxes[c.rank].await(src, tag, true)
	if err != nil {
		if errors.Is(err, ErrDeadlock) {
			err = c.deadlockError(*bop)
		}
		return Status{}, err
	}
	return Status{Source: m.src, Tag: m.tag, Count: m.size()}, nil
}

// SendRecv performs a combined send and receive that cannot deadlock, like
// MPI_Sendrecv. Eager-sized payloads use a buffered send; rendezvous-sized
// payloads are posted nonblocking before the receive runs and harvested
// after it, so two ranks exchanging large buffers head-to-head always make
// progress without the library buffering a jumbo copy.
func (c *Comm) SendRecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	return c.sendRecv([][]byte{sendBuf}, dst, sendTag, recvBuf, src, recvTag)
}

// sendRecv is SendRecv with a vectored send half: the chunks travel as one
// message, exactly as their concatenation would — same size, same eager or
// rendezvous protocol, same clock and counters — but a rendezvous hands the
// receiver the chunk list itself, so the receive is the only copy.
func (c *Comm) sendRecv(send [][]byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	m, err := c.post(send, dst, sendTag)
	if err != nil {
		return Status{}, err
	}
	st, rerr := c.Recv(recvBuf, src, recvTag)
	return st, c.harvest(m, dst, sendTag, rerr)
}

// post is a SendRecv's send half, issued before its receive: an eager-sized
// payload goes as a buffered send; a rendezvous-sized one is queued at dst
// and returned, for harvest to complete after the receive. The result is
// nil when nothing is left to harvest (eager, or dropped).
func (c *Comm) post(send [][]byte, dst, tag int) (*message, error) {
	if dst < 0 || dst >= c.world.n {
		return nil, fmt.Errorf("%w: sendrecv to %d of %d", ErrRank, dst, c.world.n)
	}
	d := c.faultPoint(OpSendRecv, dst, tag)
	size := chunksLen(send)
	if size <= eagerLimit {
		c.isendDecided(send, dst, tag, d)
		return nil, nil
	}
	c.bytesSent += int64(size)
	c.msgsSent++
	if d.Action == FaultDrop {
		c.clock.Advance(simtime.Transport, c.sendOverhead(dst))
		return nil, nil
	}
	payload := send
	var extra float64
	if d.Action == FaultCorrupt {
		payload = [][]byte{corruptCopy(send, d.Bit)}
	} else if d.Action == FaultDelay {
		extra = d.Delay
	}
	m := &message{
		src: c.rank, tag: tag, coll: c.coll, chunks: payload,
		arrival: c.clock.Now() + extra,
		done:    make(chan float64, 1),
	}
	c.world.boxes[dst].enqueue(m)
	return m, nil
}

// harvest completes the send post queued at dst, once the receive that
// followed it returned rerr, and returns the SendRecv's error.
func (c *Comm) harvest(m *message, dst, tag int, rerr error) error {
	if m == nil {
		return rerr
	}
	box := c.world.boxes[dst]
	if rerr != nil {
		// Withdraw the pending send so nobody matches a buffer the caller is
		// about to reuse; if it was already matched, wait out the copy.
		if !box.remove(m) {
			<-m.done
		}
		return rerr
	}
	return c.awaitRendezvous(box, m, OpSendRecv, dst, tag)
}
