// Package collective is the analysistest fixture for the collective
// analyzer: every rank must reach the same collective operations in the
// same order, so a collective must not be skippable by a subset of ranks
// — via a rank-guarded early return, an early return on an error that was
// not collectively settled, or a rank-dependent loop. The fixture imports
// the real communicator for type-accurate receiver matching and a helper
// subpackage to exercise the interprocedural (cross-package) cases.
package collective

import (
	"errors"

	"collective/helper"
	"repro/internal/mpi"
)

// validateLocal is a purely local error source: its failures carry no
// collective settlement contract.
func validateLocal(buf []byte) error {
	if len(buf) == 0 {
		return errors.New("empty buffer")
	}
	return nil
}

// A subset of ranks returns before the barrier: the rest hang.
func badRankReturn(c *mpi.Comm) error {
	if c.Rank() == 0 {
		return nil
	}
	return c.Barrier() // want `mpi.Comm.Barrier is reachable after a rank-guarded early return`
}

// An early return guarded by a local (non-collectively-settled) error
// splits the world wherever the local failure is rank-dependent.
func badUnsettledReturn(c *mpi.Comm, buf []byte) error {
	if err := validateLocal(buf); err != nil {
		return err
	}
	return c.Barrier() // want `reachable after a non-collectively-settled early return`
}

// A rank-guarded collective not matched on the other branch desyncs the
// schedule even without a return.
func badMismatch(c *mpi.Comm, buf []byte) error {
	if c.Rank() == 0 {
		if err := c.Bcast(buf, 0); err != nil { // want `guarded by a rank-derived condition and not matched on every branch`
			return err
		}
	}
	return c.Barrier()
}

// Ranks run different iteration counts: the collective schedule diverges.
func badRankLoop(c *mpi.Comm) error {
	for i := 0; i < c.Rank(); i++ {
		if err := c.Barrier(); err != nil { // want `runs inside a rank-dependent loop`
			return err
		}
	}
	return nil
}

// A hazard anywhere in a loop body flags the body's collectives
// regardless of textual order: the next iteration's collective follows
// the early return.
func badLoopCarried(c *mpi.Comm, bufs [][]byte) error {
	for _, buf := range bufs {
		if err := c.Bcast(buf, 0); err != nil { // want `shares a loop with a non-collectively-settled early return`
			return err
		}
		if err := validateLocal(buf); err != nil {
			return err
		}
	}
	return nil
}

// The collective lives in another package: per-function analysis sees an
// opaque helper.Exchange call, only the call-graph summary knows it
// reaches an allgather.
func badCrossPackage(c *mpi.Comm, buf []byte) ([][]byte, error) {
	if err := validateLocal(buf); err != nil {
		return nil, err
	}
	return helper.Exchange(c, buf) // want `mpi.Comm.Allgather via Exchange is reachable after a non-collectively-settled early return`
}

// A //vet:uniform-marked callee fed a rank-derived argument loses its
// guarantee: the validation outcome differs per rank.
func badUniformRankArg(c *mpi.Comm) error {
	if err := helper.Validate(c.Rank()); err != nil {
		return err
	}
	return c.Barrier() // want `reachable after a non-collectively-settled early return`
}

// A //vet:uniform mark must say why it holds.
//
//vet:uniform // want `vet:uniform is missing its reason`
func badMark(c *mpi.Comm) error {
	return c.Barrier()
}

// Guarding on a collectively settled error is the sanctioned teardown:
// the failure contract already has every rank erroring together.
func goodSettledGuard(c *mpi.Comm, buf []byte) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	return c.Bcast(buf, 0)
}

// Rank-local preparation before a matched collective is the root-work
// idiom and stays silent.
func goodRankLocalPrep(c *mpi.Comm, buf []byte) error {
	if c.Rank() == 0 {
		for i := range buf {
			buf[i] = byte(i)
		}
	}
	return c.Bcast(buf, 0)
}

// Rank-guarded branches that run the same collective sequence keep the
// schedule aligned.
func goodMatchedBranches(c *mpi.Comm, buf []byte) error {
	var err error
	if c.Rank() == 0 {
		err = c.Bcast(buf, 0)
	} else {
		err = c.Bcast(buf, 0)
	}
	return err
}

// A well-formed //vet:uniform mark on the callee settles the guard when
// the arguments are rank-uniform: every rank fails identically.
func goodUniformGuard(c *mpi.Comm, n int) error {
	if err := helper.Validate(n); err != nil {
		return err
	}
	return c.Barrier()
}

// The sample → analyze → tune partition pass: reduce the sampled loads
// so every rank holds the identical histogram, then guard the following
// collective on the rank-uniform builder — identical inputs fail every
// rank identically, so the schedule cannot split.
func goodPartitionBuild(c *mpi.Comm, weights []byte) error {
	red, err := c.Allreduce(weights, len(weights)/8, mpi.Float64, mpi.OpSumFloat64)
	if err != nil {
		return err
	}
	if err := helper.BuildPartition(len(red)/8, c.Size()); err != nil {
		return err
	}
	return c.Barrier()
}

// The same builder fed a rank-derived knob loses its guarantee: one
// rank's constructor can fail while its peers march into the barrier.
func badPartitionBuildRankArg(c *mpi.Comm) error {
	if err := helper.BuildPartition(64, c.Rank()); err != nil {
		return err
	}
	return c.Barrier() // want `reachable after a non-collectively-settled early return`
}

// The escape hatch, for sites whose teardown contract the analyzer
// cannot see.
func allowedTeardown(c *mpi.Comm, buf []byte) error {
	if err := validateLocal(buf); err != nil {
		return err
	}
	//vet:allow collective — fixture: pretend the world abort releases the peers here
	return c.Barrier()
}

// The chunk-list payload round is a collective like Alltoallv: a rank
// that returns on a local error before it strands its peers there.
func badUnsettledChunks(c *mpi.Comm, send [][][]byte, recvSizes []int, buf []byte) ([][]byte, error) {
	if err := validateLocal(buf); err != nil {
		return nil, err
	}
	return c.AlltoallvChunks(send, recvSizes) // want `mpi.Comm.AlltoallvChunks is reachable after a non-collectively-settled early return`
}

// ... and its error is settled like any collective's: every rank errors.
func goodSettledChunks(c *mpi.Comm, send [][][]byte, recvSizes []int) error {
	if _, err := c.AlltoallvChunks(send, recvSizes); err != nil {
		return err
	}
	return c.Barrier()
}
