package mpi

import "fmt"

// Collective matching, as MPI correctness tools do it. Each Comm numbers
// the collectives it enters and folds each one's kind and agreed
// arguments into a fingerprint. A collective's messages carry its stamp
// beside their source and tag, never in the payload, so counters and
// clocks are untouched. A disagreement is a *CollectiveMismatchError at a
// receive that matches another collective's message, at the deadlock it
// forms, or at the end of a run whose ranks all returned nil.

// collKind names a collective; zero means "not in a collective".
type collKind uint8

const (
	collNone collKind = iota
	collBarrier
	collBcast
	collAllgather
	collAlltoallv
	collReduce
	collAllreduce
	collScan
	collSync
)

var collNames = [...]string{"none", "Barrier", "Bcast", "Allgather", "Alltoallv", "Reduce", "Allreduce", "Scan", "WorldSync"}

func (k collKind) String() string { return collNames[k] }

// collStamp identifies one collective call on one rank: its kind, its
// 1-based position in the rank's collective sequence, and a hash of the
// root and sizes every rank must pass alike.
type collStamp struct {
	kind collKind
	seq  int
	args uint64
}

// collPos is one rank's place in its collective sequence when a deadlock
// formed: its last collective, whether it was blocked in it, and whether
// it had returned.
type collPos struct {
	last       collStamp
	in, exited bool
}

// mix folds v into h with one splitmix64 step.
func mix(h, v uint64) uint64 {
	h = (h ^ v) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// enter opens collective k with agreed-argument hash args and reports
// whether it did: a collective built from others (Allreduce's Reduce and
// Bcast) is one entry, so the inner calls open nothing. Pair it as
// defer c.leave(c.enter(k, args)).
func (c *Comm) enter(k collKind, args uint64) bool {
	if c.coll.kind != collNone {
		return false
	}
	c.coll = collStamp{kind: k, seq: c.last.seq + 1, args: args}
	c.last = c.coll
	c.collFP = mix(c.collFP, mix(uint64(k), args))
	return true
}

// leave closes the collective enter opened.
func (c *Comm) leave(opened bool) {
	if opened {
		c.coll = collStamp{}
	}
}

// recvMismatch is the error of a receive inside collective c.coll that
// matched message m, stamped by a different collective.
func (c *Comm) recvMismatch(m *message) error {
	return &CollectiveMismatchError{
		Rank: c.rank, Kind: c.coll.kind.String(), Seq: c.coll.seq,
		Peer: m.src, PeerKind: m.coll.kind.String(), PeerSeq: m.coll.seq,
	}
}

// deadlockError builds the diagnostic form of ErrDeadlock for an operation
// caught in a deadlock: the failing operation plus a snapshot of every
// blocked rank, taken while this rank's own entry is still published. If
// this rank is blocked in a collective that another rank is blocked
// outside of, or returned without having run, the dump comes wrapped in a
// CollectiveMismatchError.
func (c *Comm) deadlockError(op BlockedOp) error {
	de := &DeadlockError{Op: op, Blocked: c.world.snapshotBlocked()}
	me := c.coll
	if me.kind == collNone {
		return de
	}
	for r, p := range c.world.deadPos {
		if p.last != me && (p.in || p.exited && p.last.seq <= me.seq) {
			return &CollectiveMismatchError{
				Rank: c.rank, Kind: me.kind.String(), Seq: me.seq,
				Peer: r, PeerKind: p.last.kind.String(), PeerSeq: p.last.seq, Deadlock: de,
			}
		}
	}
	return de
}

// runEndMismatch compares the ranks' collective counts and fingerprints
// once every rank has returned nil; a rank that skipped a collective its
// peers completed without deadlocking shows up here.
func (w *World) runEndMismatch() error {
	a := w.comms[0]
	for _, b := range w.comms[1:] {
		if a.last.seq != b.last.seq || a.collFP != b.collFP {
			return &CollectiveMismatchError{
				Rank: a.rank, Kind: a.last.kind.String(), Seq: a.last.seq,
				Peer: b.rank, PeerKind: b.last.kind.String(), PeerSeq: b.last.seq,
			}
		}
	}
	return nil
}

// CollectiveMismatchError reports two ranks that disagree on the
// collective sequence: a different kind, sequence number, root or agreed
// size at the same point, or a collective one of them never reached. Kind
// and Seq place Rank at the collective it was in (or, at the end of a run
// or for a rank that had returned, its last one and its count); PeerKind
// and PeerSeq place Peer likewise. Found at a deadlock, it carries the
// DeadlockError dump and satisfies errors.Is(err, ErrDeadlock).
type CollectiveMismatchError struct {
	Rank     int
	Kind     string
	Seq      int
	Peer     int
	PeerKind string
	PeerSeq  int
	// Deadlock is the blocked-operation dump, or nil if the mismatch was
	// found at a receive or at the end of the run.
	Deadlock *DeadlockError
}

// Error names both ranks and where each stood.
func (e *CollectiveMismatchError) Error() string {
	s := fmt.Sprintf("mpi: collective mismatch: rank %d at %s #%d, rank %d at %s #%d",
		e.Rank, e.Kind, e.Seq, e.Peer, e.PeerKind, e.PeerSeq)
	if e.Deadlock != nil {
		s += "; " + e.Deadlock.Error()
	}
	return s
}

// Unwrap exposes the deadlock dump, if any.
func (e *CollectiveMismatchError) Unwrap() error {
	if e.Deadlock == nil {
		return nil
	}
	return e.Deadlock
}
