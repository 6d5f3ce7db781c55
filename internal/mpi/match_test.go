package mpi

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// TestCollectiveMismatch: ranks that disagree on the collective sequence
// fail with a CollectiveMismatchError naming two ranks and where each
// stood — at the receive that meets the other collective's message, at
// the deadlock the disagreement forms, or, when every rank returns nil,
// at the end of the run. No case hangs and no rank is left running.
func TestCollectiveMismatch(t *testing.T) {
	bcast := func(c *Comm, root int, v byte) ([]byte, error) {
		buf := []byte{0, 0, 0, 0}
		if c.Rank() == root {
			buf = []byte{v, v, v, v}
		}
		return buf, c.Bcast(buf, root)
	}
	cases := []struct {
		name string
		n    int
		fn   func(c *Comm) error
		// kinds is the pair the world's error names, in either order;
		// deadlock says it was found at a deadlock (and wraps the dump).
		kinds    [2]string
		deadlock bool
	}{
		{"kind", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Barrier()
			}
			_, err := bcast(c, 0, 1)
			return err
		}, [2]string{"Barrier", "Bcast"}, true},
		{"root", 3, func(c *Comm) error {
			_, err := bcast(c, min(c.Rank()/2, 1), 1) // rank 2 names root 1
			return err
		}, [2]string{"Bcast", "Bcast"}, true},
		{"allreduce-count", 2, func(c *Comm) error {
			count := 2 + c.Rank()
			_, err := c.Allreduce(make([]byte, 8*count), count, Float64, OpSumFloat64)
			return err
		}, [2]string{"Allreduce", "Allreduce"}, false},
		{"skipped-deadlocks", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			_, err := c.Allreduce(make([]byte, 8), 1, Float64, OpSumFloat64)
			return err
		}, [2]string{"Barrier", "Allreduce"}, true},
		{"skipped-bcast-sizes-agree", 2, func(c *Comm) error {
			if c.Rank() == 0 {
				if _, err := bcast(c, 0, 1); err != nil {
					return err
				}
			}
			got, err := bcast(c, 0, 2)
			if err == nil && c.Rank() == 1 && !bytes.Equal(got, []byte{1, 1, 1, 1}) {
				t.Errorf("rank 1 got %v: the skip no longer pairs its Bcast with rank 0's first", got)
			}
			return err
		}, [2]string{"Bcast", "Bcast"}, false},
		{"worldsync-key", 2, func(c *Comm) error {
			_, err := c.WorldSync([]string{"a", "b"}[c.Rank()], nil, syncNothing)
			return err
		}, [2]string{"WorldSync", "WorldSync"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, tc.n)
			var mu sync.Mutex
			err := Run(cluster.Local(tc.n), func(c *Comm) error {
				err := tc.fn(c)
				mu.Lock()
				errs[c.Rank()] = err
				mu.Unlock()
				return err
			})
			var me *CollectiveMismatchError
			if !errors.As(err, &me) {
				t.Fatalf("world err = %v, want a CollectiveMismatchError", err)
			}
			if got := [2]string{me.Kind, me.PeerKind}; got != tc.kinds && got != [2]string{tc.kinds[1], tc.kinds[0]} {
				t.Errorf("mismatch names %v, want %v", got, tc.kinds)
			}
			if me.Rank == me.Peer || me.Seq < 0 || me.PeerSeq < 0 {
				t.Errorf("mismatch %+v does not name two ranks", me)
			}
			if got := errors.Is(err, ErrDeadlock); got != tc.deadlock || (me.Deadlock != nil) != tc.deadlock {
				t.Errorf("errors.Is(ErrDeadlock) = %v, dump %v; want deadlock %v", got, me.Deadlock, tc.deadlock)
			}
			for r, err := range errs {
				if err != nil && !errors.As(err, new(*CollectiveMismatchError)) && !errors.Is(err, ErrAborted) {
					t.Errorf("rank %d: err = %v, want a mismatch or ErrAborted", r, err)
				}
			}
		})
	}
}

// TestCollectiveMismatchAtRunEnd pins the run-end check's report: rank 1
// skips the first of two Bcasts, both ranks return nil, and the world's
// error gives each rank's count and last collective.
func TestCollectiveMismatchAtRunEnd(t *testing.T) {
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Bcast(make([]byte, 8), 0); err != nil {
				return err
			}
		}
		return c.Bcast(make([]byte, 8), 0)
	})
	var me *CollectiveMismatchError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want a CollectiveMismatchError", err)
	}
	want := CollectiveMismatchError{Rank: 0, Kind: "Bcast", Seq: 2, Peer: 1, PeerKind: "Bcast", PeerSeq: 1}
	if *me != want {
		t.Errorf("got %+v, want %+v", *me, want)
	}
	if got, want := me.Error(), "mpi: collective mismatch: rank 0 at Bcast #2, rank 1 at Bcast #1"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
