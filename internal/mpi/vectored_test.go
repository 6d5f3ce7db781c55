package mpi_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
)

// vecSizes are the block lengths the vectored ≡ contiguous test cycles
// through: empty, tiny, and either side of the eager limit.
var vecSizes = []int{0, 1, 17, mpi.EagerLimit - 1, mpi.EagerLimit, mpi.EagerLimit + 1, 3*mpi.EagerLimit + 5}

// vecBlock is the block rank src sends to dst (dst == n is the ring step's).
func vecBlock(src, dst int) []byte {
	b := make([]byte, vecSizes[(3*src+5*dst)%len(vecSizes)])
	for i := range b {
		b[i] = byte(src*31 + dst*7 + i)
	}
	return b
}

// vecSplit cuts b into a seeded chunk list that includes empty chunks — nil
// and zero-length, leading, inner and trailing.
func vecSplit(b []byte, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	chunks := [][]byte{nil}
	for len(b) > 0 {
		if r.Intn(4) == 0 {
			chunks = append(chunks, b[:0])
		}
		k := 1 + r.Intn(min(len(b), mpi.EagerLimit/2))
		chunks = append(chunks, b[:k])
		b = b[k:]
	}
	return append(chunks, []byte{})
}

// vecOutcome is everything one rank observes of the exchange: the
// Alltoallv result, the ring SendRecv's payload and Status, the
// communicator counters and the final clock's bits.
type vecOutcome struct {
	recv            [][]byte
	ring            []byte
	st              mpi.Status
	bytes, msgs     int64
	clock           uint64
	errA2A, errRing error
}

// vecRun runs one Alltoallv and one ring SendRecv on n ranks, every send
// either packed (contiguous) or as a chunk list (vectored), under plan.
func vecRun(t *testing.T, n int, vectored bool, plan *fault.Plan) []vecOutcome {
	t.Helper()
	var opt mpi.Options
	if plan != nil {
		opt.Fault = plan.New()
	}
	out := make([]vecOutcome, n)
	var mu sync.Mutex
	err := mpi.RunOpt(cluster.Local(n), opt, func(c *mpi.Comm) error {
		r := c.Rank()
		send := make([][]byte, n)
		chunks := make([][][]byte, n)
		recvSizes := make([]int, n)
		for dst := range send {
			send[dst] = vecBlock(r, dst)
			chunks[dst] = vecSplit(send[dst], int64(r*n+dst))
			recvSizes[dst] = len(vecBlock(dst, r))
		}
		var o vecOutcome
		if vectored {
			o.recv = make([][]byte, n)
			o.errA2A = c.AlltoallvChunks(chunks, recvSizes, mpi.JoinInto(o.recv))
		} else {
			o.recv, o.errA2A = c.Alltoallv(send, recvSizes)
		}
		next, prev := (r+1)%n, (r-1+n)%n
		ring := vecBlock(r, n)
		o.ring = make([]byte, len(vecBlock(prev, n)))
		if vectored {
			o.st, o.errRing = c.SendRecvChunks(vecSplit(ring, int64(-r-1)), next, 9, o.ring, prev, 9)
		} else {
			o.st, o.errRing = c.SendRecv(ring, next, 9, o.ring, prev, 9)
		}
		o.bytes, o.msgs, o.clock = c.BytesSent(), c.MsgsSent(), math.Float64bits(c.Now())
		mu.Lock()
		out[r] = o
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVectoredMatchesContiguous: a block sent as a chunk list is the block
// sent packed — the same received bytes and Status, the same BytesSent and
// MsgsSent, and every rank's same final clock, bitwise — for Alltoallv ≡
// AlltoallvChunks and SendRecv ≡ its vectored body, over world sizes 1–5,
// chunk lists with empty chunks and totals either side of the eager limit;
// and a CorruptMessage plan flips the same bit in both.
func TestVectoredMatchesContiguous(t *testing.T) {
	corrupt := fault.CorruptTag(-1, -1)
	corrupt.Times = 1 << 20 // every send
	plan := &fault.Plan{Seed: 29, Rules: []fault.Rule{corrupt}}
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			clean := vecRun(t, n, false, nil)
			for r, o := range clean {
				if o.errA2A != nil || o.errRing != nil {
					t.Fatalf("rank %d: %v / %v", r, o.errA2A, o.errRing)
				}
				for src, got := range o.recv {
					if !bytes.Equal(got, vecBlock(src, r)) {
						t.Fatalf("rank %d: block from %d wrong", r, src)
					}
				}
			}
			for _, p := range []*fault.Plan{nil, plan} {
				want, got := vecRun(t, n, false, p), vecRun(t, n, true, p)
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						g, w := got[r], want[r]
						t.Errorf("plan=%v rank %d: vectored differs from contiguous:\n vectored   %+v %d B %d msgs clock %x\n contiguous %+v %d B %d msgs clock %x",
							p != nil, r, g.st, g.bytes, g.msgs, g.clock, w.st, w.bytes, w.msgs, w.clock)
					}
				}
				if p != nil && n > 1 && reflect.DeepEqual(want, clean) {
					t.Error("the corruption plan changed nothing")
				}
			}
		})
	}
}
