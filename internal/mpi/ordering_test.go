package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/simtime"
)

// TestNonOvertaking: messages between one (sender, receiver, tag) pair
// must arrive in send order — the MPI non-overtaking guarantee Algorithm
// 1's fragment chains rely on.
func TestNonOvertaking(t *testing.T) {
	const msgs = 200
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(i))
				if err := c.Send(buf[:], 1, 5); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			var buf [8]byte
			if _, err := c.Recv(buf[:], 0, 5); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(buf[:]); got != uint64(i) {
				return fmt.Errorf("message %d overtook: got %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonOvertakingMixedSizes: ordering must hold even when eager (small)
// and rendezvous (large) messages interleave on the same tag.
func TestNonOvertakingMixedSizes(t *testing.T) {
	sizes := []int{10, eagerLimit + 1, 100, eagerLimit * 2, 1, eagerLimit + 500}
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 0 {
			for i, n := range sizes {
				buf := make([]byte, n)
				buf[0] = byte(i)
				if err := c.Send(buf, 1, 9); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range sizes {
			buf := make([]byte, eagerLimit*2+1000)
			st, err := c.Recv(buf, 0, 9)
			if err != nil {
				return err
			}
			if st.Count != sizes[i] {
				return fmt.Errorf("message %d: got %d bytes, want %d (overtaken)", i, st.Count, sizes[i])
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d: payload tag %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVirtualTimeMonotonic: a rank's clock never goes backwards across
// arbitrary sequences of sends, receives and collectives.
func TestVirtualTimeMonotonic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(17))}
	prop := func(seed int64) bool {
		ok := true
		err := Run(cluster.Local(4), func(c *Comm) error {
			// One shared seed: every rank must pick the same collective
			// sequence or the program is erroneous MPI.
			r := rand.New(rand.NewSource(seed))
			last := c.Now()
			check := func() {
				if c.Now() < last {
					ok = false
				}
				last = c.Now()
			}
			for i := 0; i < 20; i++ {
				switch r.Intn(3) {
				case 0:
					if err := c.Barrier(); err != nil {
						return err
					}
				case 1:
					buf := make([]byte, 8)
					if _, err := c.Allreduce(buf, 1, Int64, OpSumInt64); err != nil {
						return err
					}
				default:
					c.Charge(simtime.Parse, 1e-6)
				}
				check()
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSendRecvNoDeadlockRing: SendRecv must complete a full ring exchange
// of rendezvous-sized messages without the even/odd dance.
func TestSendRecvNoDeadlockRing(t *testing.T) {
	const n = 6
	err := Run(cluster.Local(n), func(c *Comm) error {
		payload := make([]byte, eagerLimit*2)
		payload[0] = byte(c.Rank())
		recv := make([]byte, eagerLimit*2)
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		if _, err := c.SendRecv(payload, next, 3, recv, prev, 3); err != nil {
			return err
		}
		if recv[0] != byte(prev) {
			return fmt.Errorf("rank %d: got payload from %d, want %d", c.Rank(), recv[0], prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
