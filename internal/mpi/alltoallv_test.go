package mpi

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// a2aBlock is the block rank src sends rank dst in the contract tests:
// sizes cycle through empty, eager and rendezvous, so every pairing kind
// (both ways, send only, receive only, neither) occurs on four ranks.
func a2aBlock(src, dst int) []byte {
	sizes := []int{0, 100, eagerLimit, eagerLimit + 1, 3*eagerLimit + 7}
	b := make([]byte, sizes[(2*src+3*dst)%len(sizes)])
	for i := range b {
		b[i] = byte(src*41 + dst*13 + i)
	}
	return b
}

// a2aSend is rank r's send side: each block as a two-chunk list (split in
// the middle), and the sizes it expects from every source.
func a2aSend(r, n int) (send [][][]byte, recvSizes []int) {
	send = make([][][]byte, n)
	recvSizes = make([]int, n)
	for dst := range send {
		b := a2aBlock(r, dst)
		send[dst] = [][]byte{b[:len(b)/2], b[len(b)/2:]}
		recvSizes[dst] = len(a2aBlock(dst, r))
	}
	return send, recvSizes
}

// a2aRendezvous reports whether src's block for dst travels by rendezvous
// on n ranks: in the pairwise round that sends it, src also receives (from
// src-i), so it posts the block as a SendRecv would, and the block is past
// the eager limit. A block sent in a round with nothing to receive goes as
// a buffered send, a private copy whatever its size.
func a2aRendezvous(src, dst, n int) bool {
	i := (dst - src + n) % n
	return i > 0 && len(a2aBlock(src, dst)) > eagerLimit && len(a2aBlock((src-i+n)%n, src)) > 0
}

// TestAlltoallvChunksBlocks pins what the consumer is handed: a rendezvous
// block is the sender's own chunk list, any other remote block a private
// copy of its bytes, the own block send[rank] itself; every non-empty block
// exactly once, none empty, each with the sender's bytes.
func TestAlltoallvChunksBlocks(t *testing.T) {
	const n = 4
	sends := make([][][][]byte, n)
	for r := range sends {
		sends[r], _ = a2aSend(r, n)
	}
	var rendezvous, eager atomic.Int32
	run(t, n, func(c *Comm) error {
		r := c.Rank()
		_, recvSizes := a2aSend(r, n)
		seen := make([]int, n)
		var bad []string
		err := c.AlltoallvChunks(sends[r], recvSizes, func(src int, block [][]byte) {
			seen[src]++
			sent := sends[src][r]
			if !bytes.Equal(bytes.Join(block, nil), a2aBlock(src, r)) {
				bad = append(bad, fmt.Sprintf("block from %d: wrong bytes", src))
			}
			aliases := &block[0] == &sent[0]
			switch {
			case len(a2aBlock(src, r)) == 0:
				bad = append(bad, fmt.Sprintf("empty block from %d handed over", src))
			case src == r && !aliases:
				bad = append(bad, "own block copied")
			case src == r:
			case a2aRendezvous(src, r, n):
				rendezvous.Add(1)
				if !aliases {
					bad = append(bad, fmt.Sprintf("rendezvous block from %d is not the sender's chunk list", src))
				}
			default:
				eager.Add(1)
				if aliases || len(block) != 1 || &block[0][0] == &sent[0][0] {
					bad = append(bad, fmt.Sprintf("eager block from %d is not a private copy", src))
				}
			}
		})
		if err != nil {
			return err
		}
		for src, k := range seen {
			if want := min(1, len(a2aBlock(src, r))); k != want {
				bad = append(bad, fmt.Sprintf("block from %d handed over %d times, want %d", src, k, want))
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("rank %d: %s", r, strings.Join(bad, "; "))
		}
		return nil
	})
	if rendezvous.Load() == 0 || eager.Load() == 0 {
		t.Errorf("%d rendezvous and %d eager blocks: the fixture must exercise both", rendezvous.Load(), eager.Load())
	}
}

// TestAlltoallvChunksSizeMismatch: a block whose length is not the size
// the receiver expects fails the call, naming both sizes, before the
// consumer sees it — eager or rendezvous, longer or shorter.
func TestAlltoallvChunksSizeMismatch(t *testing.T) {
	for _, size := range []int{64, 2 * eagerLimit} {
		for _, delta := range []int{-1, 1} {
			var handed atomic.Int32
			err := Run(cluster.Local(2), func(c *Comm) error {
				send := [][][]byte{{make([]byte, size)}, {make([]byte, size)}}
				recvSizes := []int{size, size}
				if c.Rank() == 0 {
					recvSizes[1] += delta
				}
				return c.AlltoallvChunks(send, recvSizes, func(src int, _ [][]byte) {
					if src != c.Rank() {
						handed.Add(1)
					}
				})
			})
			want := fmt.Sprintf("alltoallv: rank 1 sent %d bytes, expected %d", size, size+delta)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("size %d%+d: err = %v, want %q", size, delta, err, want)
			}
			// Rank 1's block for rank 0 must not reach the consumer; rank
			// 0's block for rank 1 may, if rank 1 takes it before the abort.
			if k := handed.Load(); k > 1 {
				t.Errorf("size %d%+d: consumer ran %d times on remote blocks; the mismatched one reached it", size, delta, k)
			}
		}
	}
}

// TestAlltoallvChunksHoldsSender: a rendezvous sender is held until the
// consumer returns — it cannot leave the collective while its chunks are
// being read — and a consumer that runs long is not a deadlock.
func TestAlltoallvChunksHoldsSender(t *testing.T) {
	var left atomic.Bool
	run(t, 2, func(c *Comm) error {
		big := make([]byte, 2*eagerLimit)
		send := [][][]byte{{big}, {big}}
		recvSizes := []int{len(big), len(big)}
		var early bool
		err := c.AlltoallvChunks(send, recvSizes, func(src int, _ [][]byte) {
			if c.Rank() == 0 && src == 1 {
				time.Sleep(20 * time.Millisecond)
				early = left.Load()
			}
		})
		if c.Rank() == 1 {
			left.Store(true)
		}
		if err != nil {
			return err
		}
		if early {
			return fmt.Errorf("rank 1 left the collective while rank 0 was reading its block")
		}
		return nil
	})
}

// TestAlltoallvChunksPanicReleasesSender: a consumer that panics still
// releases the rendezvous sender it was reading, so the world aborts with
// the panic instead of hanging on the held sender.
func TestAlltoallvChunksPanicReleasesSender(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(cluster.Local(2), func(c *Comm) error {
			big := make([]byte, 2*eagerLimit)
			send := [][][]byte{{big}, {big}}
			return c.AlltoallvChunks(send, []int{len(big), len(big)}, func(src int, _ [][]byte) {
				if c.Rank() == 0 && src == 1 {
					panic("consumer failed")
				}
			})
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "consumer failed") {
			t.Fatalf("err = %v, want the consumer's panic", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the world hangs: the panicking consumer never released its sender")
	}
}

// a2aOutcome is one rank's clock bits and send counters after an exchange.
type a2aOutcome struct {
	clock       uint64
	bytes, msgs int64
}

// TestAlltoallvChunksClockMatchesAlltoallv: handing blocks to a consumer
// instead of copying them costs nothing on the virtual clock —
// AlltoallvChunks with a consumer that keeps nothing, and Alltoallv, leave
// every rank with the same clock bits and counters as the golden table,
// which predates the consumer.
func TestAlltoallvChunksClockMatchesAlltoallv(t *testing.T) {
	const n = 4
	golden := [n]a2aOutcome{
		{0x3ec039fc2899a20a, 16492, 3},
		{0x3eb9933f867f6ad8, 8293, 3},
		{0x3eb9933f867f6ad8, 20488, 3},
		{0x3ec039fc2899a20a, 16491, 3},
	}
	for _, chunked := range []bool{false, true} {
		var mu sync.Mutex
		var got [n]a2aOutcome
		run(t, n, func(c *Comm) error {
			send, recvSizes := a2aSend(c.Rank(), n)
			var err error
			if chunked {
				err = c.AlltoallvChunks(send, recvSizes, func(int, [][]byte) {})
			} else {
				flat := make([][]byte, n)
				for dst, chunks := range send {
					flat[dst] = bytes.Join(chunks, nil)
				}
				_, err = c.Alltoallv(flat, recvSizes)
			}
			mu.Lock()
			got[c.Rank()] = a2aOutcome{math.Float64bits(c.Now()), c.BytesSent(), c.MsgsSent()}
			mu.Unlock()
			return err
		})
		for r := range got {
			if got[r] != golden[r] {
				t.Errorf("chunked=%v rank %d: clock %#x, %d B, %d msgs; want %#x, %d B, %d msgs",
					chunked, r, got[r].clock, got[r].bytes, got[r].msgs, golden[r].clock, golden[r].bytes, golden[r].msgs)
			}
		}
	}
}

// TestRecvAllocs pins the point-to-point receive's cost per call: one
// rank sending to itself, so the counts include the send half — an eager
// Send + Recv, an eager SendRecv and a rendezvous SendRecv (posted, taken
// from the rank's own mailbox, harvested). The receive's take and complete
// steps are shared with AlltoallvChunks and add nothing.
func TestRecvAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		want float64
		op   func(c *Comm, out, in []byte) error
	}{
		{"send+recv eager", 64, 3, func(c *Comm, out, in []byte) error {
			if err := c.Send(out, 0, 1); err != nil {
				return err
			}
			_, err := c.Recv(in, 0, 1)
			return err
		}},
		{"sendrecv eager", 64, 4, func(c *Comm, out, in []byte) error {
			_, err := c.SendRecv(out, 0, 1, in, 0, 1)
			return err
		}},
		{"sendrecv rendezvous", 4 * eagerLimit, 5, func(c *Comm, out, in []byte) error {
			_, err := c.SendRecv(out, 0, 1, in, 0, 1)
			return err
		}},
	} {
		err := Run(cluster.Local(1), func(c *Comm) error {
			out, in := make([]byte, tc.size), make([]byte, tc.size)
			var err error
			got := testing.AllocsPerRun(200, func() {
				if e := tc.op(c, out, in); e != nil {
					err = e
				}
			})
			if err != nil {
				return err
			}
			if got != tc.want {
				t.Errorf("%s: %v allocs per call, want %v", tc.name, got, tc.want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
