package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// funcInjector adapts a function to the FaultInjector interface.
type funcInjector func(op FaultOp) FaultDecision

func (f funcInjector) Decide(op FaultOp) FaultDecision { return f(op) }

func TestSendRecvHeadToHeadLarge(t *testing.T) {
	// Two ranks exchange rendezvous-sized payloads head-to-head with a
	// single SendRecv each. A blocking send-then-receive implementation
	// deadlocks here; the posted-send implementation must complete fast.
	big := bytes.Repeat([]byte{0xC3}, 1<<20)
	start := time.Now()
	err := Run(cluster.Local(2), func(c *Comm) error {
		peer := 1 - c.Rank()
		out := bytes.Repeat([]byte{byte(0x10 + c.Rank())}, len(big))
		in := make([]byte, len(big))
		st, err := c.SendRecv(out, peer, 3, in, peer, 3)
		if err != nil {
			return err
		}
		want := byte(0x10 + peer)
		if st.Count != len(big) || in[0] != want || in[len(in)-1] != want {
			return fmt.Errorf("head-to-head payload wrong: count=%d first=%#x", st.Count, in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("head-to-head SendRecv took %v; should complete at once", el)
	}
}

func TestFaultDropDeadlockDump(t *testing.T) {
	// Rank 0's message to rank 1 is dropped; rank 1's receive must end in a
	// DeadlockError whose dump names the blocked receive.
	inj := funcInjector(func(op FaultOp) FaultDecision {
		if op.Rank == 0 && op.Kind == OpSend && op.Tag == 7 {
			return FaultDecision{Action: FaultDrop}
		}
		return FaultDecision{}
	})
	err := RunOpt(cluster.Local(2), Options{Fault: inj}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("lost"), 1, 7)
		}
		_, err := c.Recv(make([]byte, 8), 0, 7)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if de.Op.Rank != 1 || de.Op.Op != OpRecv || de.Op.Tag != 7 {
		t.Errorf("deadlock op = %+v, want rank 1 Recv tag 7", de.Op)
	}
	if len(de.Blocked) == 0 {
		t.Error("deadlock dump is empty")
	}
	if !strings.Contains(err.Error(), "Recv") || !strings.Contains(err.Error(), "tag 7") {
		t.Errorf("dump not rendered: %v", err)
	}
}

func TestFaultCorrupt(t *testing.T) {
	for _, size := range []int{64, eagerLimit * 4} {
		name := "eager"
		if size > eagerLimit {
			name = "rendezvous"
		}
		t.Run(name, func(t *testing.T) {
			orig := bytes.Repeat([]byte{0x55}, size)
			sent := append([]byte(nil), orig...)
			inj := funcInjector(func(op FaultOp) FaultDecision {
				if op.Kind == OpSend || op.Kind == OpSendRecv {
					return FaultDecision{Action: FaultCorrupt, Bit: 13}
				}
				return FaultDecision{}
			})
			err := RunOpt(cluster.Local(2), Options{Fault: inj}, func(c *Comm) error {
				if c.Rank() == 0 {
					return c.Send(sent, 1, 0)
				}
				buf := make([]byte, size)
				if _, err := c.Recv(buf, 0, 0); err != nil {
					return err
				}
				if bytes.Equal(buf, orig) {
					return fmt.Errorf("payload arrived uncorrupted")
				}
				want := append([]byte(nil), orig...)
				want[13/8] ^= 1 << (13 % 8)
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("corruption flipped the wrong bit")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sent, orig) {
				t.Error("sender's buffer was mutated by corruption")
			}
		})
	}
}

func TestFaultDelayDeterministic(t *testing.T) {
	const extra = 0.25
	arrive := func(inj FaultInjector) float64 {
		var at float64
		err := RunOpt(cluster.Local(2), Options{Fault: inj}, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send([]byte("x"), 1, 0)
			}
			if _, err := c.Recv(make([]byte, 1), 0, 0); err != nil {
				return err
			}
			at = c.Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	none := funcInjector(func(op FaultOp) FaultDecision { return FaultDecision{} })
	delay := funcInjector(func(op FaultOp) FaultDecision {
		if op.Kind == OpSend {
			return FaultDecision{Action: FaultDelay, Delay: extra}
		}
		return FaultDecision{}
	})
	base := arrive(none)
	slow := arrive(delay)
	if diff := slow - base; diff < extra*0.999 || diff > extra*1.001 {
		t.Errorf("delay fault added %v virtual seconds, want %v", diff, extra)
	}
	if again := arrive(delay); again != slow {
		t.Errorf("delayed run not deterministic: %v vs %v", again, slow)
	}
}

func TestFaultCrashTeardown(t *testing.T) {
	// Rank 1 crashes at its first op while ranks 0 and 2 wait on it. The
	// world must tear down with a CrashError wrapping ErrAborted, carrying
	// the blocked-op snapshot of the stranded peers.
	inj := funcInjector(func(op FaultOp) FaultDecision {
		if op.Rank == 1 && op.Index == 0 {
			return FaultDecision{Action: FaultCrash}
		}
		return FaultDecision{}
	})
	err := RunOpt(cluster.Local(3), Options{Fault: inj}, func(c *Comm) error {
		if c.Rank() == 1 {
			// Give the peers a moment to block before crashing.
			time.Sleep(50 * time.Millisecond)
			return c.Send([]byte("x"), 0, 0)
		}
		_, err := c.Recv(make([]byte, 8), 1, 0)
		return err
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CrashError", err)
	}
	if ce.Rank != 1 || ce.OpIndex != 0 || ce.Op != OpSend {
		t.Errorf("crash site = %+v, want rank 1 op 0 Send", ce)
	}
	if len(ce.Blocked) < 2 {
		t.Errorf("crash dump has %d blocked ops, want the two stranded receives", len(ce.Blocked))
	}
}

// crashSweepWorkload exercises every operation kind: point-to-point in both
// protocols, the collective set, and a WorldSync rendezvous.
func crashSweepWorkload(c *Comm) error {
	n := c.Size()
	if err := c.Barrier(); err != nil {
		return err
	}
	root := make([]byte, 16)
	if err := c.Bcast(root, 0); err != nil {
		return err
	}
	send := make([][]byte, n)
	sizes := make([]int, n)
	for i := range send {
		send[i] = []byte{byte(c.Rank()), byte(i)}
		sizes[i] = 2
	}
	if _, err := c.Alltoallv(send, sizes); err != nil {
		return err
	}
	// The vectored collective: each block three chunks, one empty, past the
	// eager limit in total.
	chunks := make([][][]byte, n)
	for i := range chunks {
		chunks[i] = [][]byte{{byte(c.Rank())}, nil, make([]byte, eagerLimit)}
		sizes[i] = eagerLimit + 1
	}
	if err := c.AlltoallvChunks(chunks, sizes, func(int, [][]byte) {}); err != nil {
		return err
	}
	next := (c.Rank() + 1) % n
	prev := (c.Rank() - 1 + n) % n
	big := make([]byte, eagerLimit*2)
	in := make([]byte, len(big))
	if _, err := c.SendRecv(big, next, 5, in, prev, 5); err != nil {
		return err
	}
	_, err := c.WorldSync("sweep", c.Rank(), func(inputs []any) []any {
		outs := make([]any, len(inputs))
		for i := range outs {
			outs[i] = 0
		}
		return outs
	})
	return err
}

func TestCrashSweepEveryOp(t *testing.T) {
	const n = 3
	// Pass 1: count each rank's communicator operations with a do-nothing
	// injector.
	var mu sync.Mutex
	counts := make([]int, n)
	counter := funcInjector(func(op FaultOp) FaultDecision {
		mu.Lock()
		if op.Index+1 > counts[op.Rank] {
			counts[op.Rank] = op.Index + 1
		}
		mu.Unlock()
		return FaultDecision{}
	})
	if err := RunOpt(cluster.Local(n), Options{Fault: counter}, crashSweepWorkload); err != nil {
		t.Fatal(err)
	}
	total := 0
	for r, k := range counts {
		if k == 0 {
			t.Fatalf("rank %d recorded no ops", r)
		}
		total += k
	}
	t.Logf("sweeping %d crash points (%v ops per rank)", total, counts)

	// Pass 2: crash at every (rank, op-index) and require a prompt abort —
	// an error on the world, no hang.
	for rank := 0; rank < n; rank++ {
		for idx := 0; idx < counts[rank]; idx++ {
			rank, idx := rank, idx
			inj := funcInjector(func(op FaultOp) FaultDecision {
				if op.Rank == rank && op.Index == idx {
					return FaultDecision{Action: FaultCrash}
				}
				return FaultDecision{}
			})
			err := RunOpt(cluster.Local(n), Options{Fault: inj}, crashSweepWorkload)
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("crash at rank %d op %d: err = %v, want ErrAborted", rank, idx, err)
			}
			var ce *CrashError
			if !errors.As(err, &ce) || ce.Rank != rank || ce.OpIndex != idx {
				t.Fatalf("crash at rank %d op %d: wrong crash report %v", rank, idx, err)
			}
		}
	}
}

func TestWorldSyncDeadlockDump(t *testing.T) {
	// Rank 1 never joins the rendezvous: the others' WorldSync must report a
	// DeadlockError naming the session key.
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		_, err := c.WorldSync("late", nil, func(inputs []any) []any { return make([]any, len(inputs)) })
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if de.Op.Op != OpSync || de.Op.Key != "late" {
		t.Errorf("deadlock op = %+v, want WorldSync(\"late\")", de.Op)
	}
	if !strings.Contains(err.Error(), `WorldSync("late")`) {
		t.Errorf("dump not rendered: %v", err)
	}
}
