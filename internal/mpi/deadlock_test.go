package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// syncNothing is a WorldSync compute that hands every rank a nil output.
func syncNothing(inputs []any) []any { return make([]any, len(inputs)) }

// TestDeadlockReportedAtOnce: under the default options, a deadlock is
// reported when it forms — with no wall-clock deadline to wait out — and
// every rank blocked in it returns its own DeadlockError naming its own
// operation, not the ErrAborted of the first one to return.
func TestDeadlockReportedAtOnce(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		fn   func(c *Comm) error
		// blocked is what each rank ends blocked in; absent ranks return.
		blocked func(r int) (BlockedOp, bool)
	}{
		{"head-to-head-sends", func(c *Comm) error {
			return c.Send(make([]byte, eagerLimit+1), (c.Rank()+1)%n, 9)
		}, func(r int) (BlockedOp, bool) {
			return BlockedOp{Rank: r, Op: OpSend, Peer: (r + 1) % n, Tag: 9}, true
		}},
		{"recv-from-returned-rank", func(c *Comm) error {
			if c.Rank() == 0 {
				return nil
			}
			_, err := c.Recv(make([]byte, 8), 0, 4)
			return err
		}, func(r int) (BlockedOp, bool) {
			return BlockedOp{Rank: r, Op: OpRecv, Peer: 0, Tag: 4}, r != 0
		}},
		{"worldsync-never-joined", func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			_, err := c.WorldSync("never", nil, syncNothing)
			return err
		}, func(r int) (BlockedOp, bool) {
			return BlockedOp{Rank: r, Op: OpSync, Peer: -1, Key: "never"}, r != 2
		}},
		{"returned-before-barrier", func(c *Comm) error {
			if c.Rank() == 0 {
				return nil
			}
			err := c.Barrier()
			if !errors.As(err, new(*CollectiveMismatchError)) {
				t.Errorf("rank %d: err = %v, want a CollectiveMismatchError", c.Rank(), err)
			}
			return err
		}, func(r int) (BlockedOp, bool) {
			// Rank 1 blocks after its first token send; rank 2 after
			// receiving rank 1's token and sending its second.
			cfg := cluster.Local(n)
			vt := cfg.IntraLatency
			if r == 2 {
				vt = cfg.IntraLatency + cfg.MsgTime(1, 2, 1) + cfg.IntraLatency
			}
			return BlockedOp{Rank: r, Op: OpRecv, Peer: 0, Tag: tagBarrier, VTime: vt}, r != 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, n)
			var mu sync.Mutex
			start := time.Now()
			err := Run(cluster.Local(n), func(c *Comm) error {
				err := tc.fn(c)
				mu.Lock()
				errs[c.Rank()] = err
				mu.Unlock()
				return err
			})
			if el := time.Since(start); el > 100*time.Millisecond {
				t.Errorf("deadlock reported after %v, want under 100ms", el)
			}
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("world err = %v, want ErrDeadlock", err)
			}
			for r, err := range errs {
				want, blocked := tc.blocked(r)
				if !blocked {
					if err != nil {
						t.Errorf("rank %d: err = %v, want nil", r, err)
					}
					continue
				}
				var de *DeadlockError
				if !errors.As(err, &de) {
					t.Errorf("rank %d: err = %v, want a DeadlockError", r, err)
					continue
				}
				if got := de.Op; got != want {
					t.Errorf("rank %d reports %v, want its own %v", r, got, want)
				}
				if !slices.Contains(de.Blocked, want) {
					t.Errorf("rank %d: dump %v lacks its own operation", r, de.Blocked)
				}
			}
		})
	}
}

// TestNoDeadlockWhileARankIsBusy: a rank busy outside the runtime counts as
// running, however long it takes. Rank 0 sleeps while rank 1 parks in Recv
// (eager, then rendezvous) and rank 2 in WorldSync; then it sends and
// syncs, and the world finishes cleanly.
func TestNoDeadlockWhileARankIsBusy(t *testing.T) {
	small, big := []byte("eager"), bytes.Repeat([]byte{5}, eagerLimit+1)
	err := Run(cluster.Local(3), func(c *Comm) error {
		switch c.Rank() {
		case 0:
			time.Sleep(200 * time.Millisecond)
			if err := c.Send(small, 1, 1); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			if err := c.Send(big, 1, 2); err != nil {
				return err
			}
		case 1:
			buf := make([]byte, len(big))
			if st, err := c.Recv(buf, 0, 1); err != nil || !bytes.Equal(buf[:st.Count], small) {
				return fmt.Errorf("eager recv: %v", err)
			}
			if _, err := c.Recv(buf, 0, 2); err != nil || !bytes.Equal(buf, big) {
				return fmt.Errorf("rendezvous recv: %v", err)
			}
		}
		_, err := c.WorldSync("busy", nil, syncNothing)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoDeadlockUnderTraffic: long runs of every wake-up path — an eager
// ping-pong on two pairs and a SendRecv ring alternating eager and
// rendezvous sizes across 4 ranks, with a WorldSync per ring round — end
// with no ErrDeadlock.
func TestNoDeadlockUnderTraffic(t *testing.T) {
	const rounds = 2000
	err := Run(cluster.Local(4), func(c *Comm) error {
		peer := c.Rank() ^ 1
		buf := make([]byte, 2*eagerLimit)
		for i := 0; i < rounds; i++ {
			if (c.Rank()+i)%2 == 0 {
				if err := c.Send([]byte{byte(i)}, peer, 1); err != nil {
					return fmt.Errorf("ping %d: %w", i, err)
				}
			} else if _, err := c.Recv(buf, peer, 1); err != nil || buf[0] != byte(i) {
				return fmt.Errorf("pong %d: %v", i, err)
			}
		}
		n := c.Size()
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		for i := 0; i < rounds/10; i++ {
			out := bytes.Repeat([]byte{byte(c.Rank())}, 1+(i%2)*eagerLimit)
			st, err := c.SendRecv(out, next, 2, buf, prev, 2)
			if err != nil {
				return fmt.Errorf("ring %d: %w", i, err)
			}
			if st.Count != len(out) || buf[0] != byte(prev) {
				return fmt.Errorf("ring %d: got %d bytes from %d", i, st.Count, buf[0])
			}
			if _, err := c.WorldSync("ring", nil, syncNothing); err != nil {
				return fmt.Errorf("ring %d sync: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
