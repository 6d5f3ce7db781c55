package mpi

import (
	"errors"
	"fmt"
	"strings"
)

var (
	// ErrDeadlock is returned from a blocking operation that can never
	// complete: every rank is blocked in the runtime or has returned, so
	// no rank is left to wake another (e.g. a ring of blocking rendezvous
	// sends with no posted receives, the hazard the paper's Algorithm 1
	// avoids with its even/odd split). It is reported the moment the
	// deadlock forms.
	ErrDeadlock = errors.New("mpi: deadlock (no rank can make progress)")

	// ErrAborted is returned from blocked operations when another rank
	// failed and the world was torn down.
	ErrAborted = errors.New("mpi: world aborted")

	// ErrTruncate is returned by Recv when the matched message is larger
	// than the receive buffer (MPI_ERR_TRUNCATE).
	ErrTruncate = errors.New("mpi: message truncated (receive buffer too small)")

	// ErrRank is returned for out-of-range rank arguments.
	ErrRank = errors.New("mpi: rank out of range")

	// ErrCount is returned for negative or inconsistent count arguments.
	ErrCount = errors.New("mpi: invalid count")
)

// BlockedOp describes what one rank was blocked on at a moment of
// interest — a deadlock or an injected crash. VTime is the rank's
// virtual clock when it entered the operation; Key names a WorldSync
// session (empty for point-to-point operations); Peer is -1 for a
// WorldSync, which has no single peer.
type BlockedOp struct {
	Rank  int
	Op    OpKind
	Peer  int
	Tag   int
	Key   string
	VTime float64
}

// String renders one blocked operation for diagnostics.
func (b BlockedOp) String() string {
	switch {
	case b.Op == OpSync:
		return fmt.Sprintf("rank %d: WorldSync(%q) @%.6gs", b.Rank, b.Key, b.VTime)
	default:
		return fmt.Sprintf("rank %d: %s peer %d tag %d @%.6gs", b.Rank, b.Op, b.Peer, b.Tag, b.VTime)
	}
}

// DeadlockError is the diagnostic form of ErrDeadlock. Every rank blocked
// when the deadlock formed returns its own: the operation it was blocked
// in plus a snapshot of what every blocked rank was waiting on, so a hang
// reads as "rank 1 Recv from 0 tag 77; rank 0 Recv from 1 tag 77" instead
// of a bare error. It wraps ErrDeadlock, so errors.Is(err, ErrDeadlock)
// keeps working everywhere.
type DeadlockError struct {
	// Op is the reporting rank's blocked operation.
	Op BlockedOp
	// Blocked is the per-rank dump: every rank that was still inside a
	// blocking operation when the reporting rank woke (itself included).
	Blocked []BlockedOp
}

// Error renders the blocked-operation dump.
func (e *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mpi: deadlock: %s can never complete", e.Op)
	if len(e.Blocked) > 0 {
		sb.WriteString("; blocked: ")
		for i, b := range e.Blocked {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(b.String())
		}
	}
	return sb.String()
}

// Unwrap ties the diagnostic to the ErrDeadlock sentinel.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// CrashError reports an injected rank crash (FaultCrash): the world tears
// down cleanly and every blocked peer is released with ErrAborted, which
// this error wraps. Blocked snapshots what the other ranks were waiting on
// when the crash struck.
type CrashError struct {
	// Rank is the crashed rank and OpIndex its operation index at the
	// moment of the crash; Op is the operation kind it died entering.
	Rank    int
	OpIndex int
	Op      OpKind
	// Blocked is the per-rank blocked-operation snapshot at teardown.
	Blocked []BlockedOp
}

// Error renders the crash site and the peers it stranded.
func (e *CrashError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mpi: rank %d crashed (injected) at op %d (%s)", e.Rank, e.OpIndex, e.Op)
	if len(e.Blocked) > 0 {
		sb.WriteString("; blocked: ")
		for i, b := range e.Blocked {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(b.String())
		}
	}
	return sb.String()
}

// Unwrap ties the crash to the ErrAborted sentinel blocked peers see.
func (e *CrashError) Unwrap() error { return ErrAborted }
