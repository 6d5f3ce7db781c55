package mpi

import "bytes"

// Fault-injection hook points. The runtime consults an optional
// FaultInjector (Options.Fault) at every communicator operation; with no
// injector installed the consultation is a single nil check, so the
// disabled path costs nothing. The injector decides per operation whether
// the message is dropped, corrupted, delayed, or whether the rank crashes
// outright — the vocabulary internal/fault builds its deterministic,
// seeded plans from.

// OpKind labels a communicator operation for fault decisions and
// blocked-operation diagnostics.
type OpKind int

const (
	// OpSend covers Send and the internal buffered sends of collectives.
	OpSend OpKind = iota
	// OpRecv is a blocking receive.
	OpRecv
	// OpProbe is a blocking probe.
	OpProbe
	// OpSendRecv is the combined send-receive (its send half; the receive
	// half is a nested OpRecv).
	OpSendRecv
	// OpSync is a WorldSync rendezvous (the simulation-layer barrier the
	// filesystem model coordinates batches through).
	OpSync
)

// String returns the operation kind name.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "Send"
	case OpRecv:
		return "Recv"
	case OpProbe:
		return "Probe"
	case OpSendRecv:
		return "SendRecv"
	case OpSync:
		return "WorldSync"
	default:
		return "Op?"
	}
}

// FaultOp describes one communicator operation to the injector: the
// calling rank, its per-rank operation index (0-based, counted only while
// an injector is installed), the operation kind, and — for point-to-point
// operations — the peer rank and tag.
type FaultOp struct {
	Rank  int
	Index int
	Kind  OpKind
	Peer  int
	Tag   int
}

// FaultAction selects what happens to the operation.
type FaultAction int

const (
	// FaultNone lets the operation proceed untouched.
	FaultNone FaultAction = iota
	// FaultDrop completes a send locally without delivering the message
	// (a lost message; the receiver's wait ends in a DeadlockError once no
	// rank is left running to send). Ignored for
	// non-send operations.
	FaultDrop
	// FaultCorrupt delivers the message with one bit flipped (Decision.Bit
	// selects which, modulo the payload size). The sender's buffer is never
	// touched — the flip lands in a private copy. Ignored for non-send
	// operations.
	FaultCorrupt
	// FaultDelay delivers the message Decision.Delay virtual seconds late.
	// Ignored for non-send operations.
	FaultDelay
	// FaultCrash kills the rank at this operation: the rank goroutine
	// unwinds as if the process died, and the world tears down with a
	// CrashError (wrapping ErrAborted) that releases every blocked peer.
	FaultCrash
)

// FaultDecision is the injector's verdict for one operation.
type FaultDecision struct {
	Action FaultAction
	// Delay is the extra virtual seconds for FaultDelay.
	Delay float64
	// Bit selects the flipped bit for FaultCorrupt (taken modulo the
	// payload's bit length).
	Bit uint64
}

// FaultInjector decides the fate of communicator operations. Decide is
// called from every rank's goroutine and must be safe for concurrent use;
// it must also be deterministic in its arguments for runs to replay.
type FaultInjector interface {
	Decide(op FaultOp) FaultDecision
}

// crashPanic is the private panic payload of FaultCrash, recovered in Run
// and converted into a CrashError world teardown.
type crashPanic struct {
	op FaultOp
}

// faultPoint consults the world's injector for one operation. With no
// injector it is a nil check and nothing else. A crash decision panics with
// crashPanic, unwinding the rank goroutine exactly like a dying process.
func (c *Comm) faultPoint(kind OpKind, peer, tag int) FaultDecision {
	inj := c.world.fault
	if inj == nil {
		return FaultDecision{}
	}
	op := FaultOp{Rank: c.rank, Index: c.opIndex, Kind: kind, Peer: peer, Tag: tag}
	c.opIndex++
	d := inj.Decide(op)
	if d.Action == FaultCrash {
		panic(crashPanic{op: op})
	}
	return d
}

// corruptCopy returns a private flattened copy of a payload's chunks with
// one bit flipped — the same bit whether the payload was sent contiguous or
// vectored. The caller's buffers are never modified — rendezvous messages
// alias the sender's live buffers, which the application is free to reuse
// after the send completes.
func corruptCopy(chunks [][]byte, bit uint64) []byte {
	out := bytes.Join(chunks, nil)
	if len(out) > 0 {
		i := bit % uint64(len(out)*8)
		out[i/8] ^= 1 << (i % 8)
	}
	return out
}
