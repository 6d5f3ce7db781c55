package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// TestMailboxSlabRecycling: the steady-state eager path — enqueue, take,
// consume, repeat — must cycle through at most two staging slabs instead
// of allocating a buffer per message.
func TestMailboxSlabRecycling(t *testing.T) {
	mb := newMailbox()
	payload := make([]byte, 1024)
	seen := map[*msgSlab]bool{}
	for i := 0; i < 1000; i++ {
		payload[0] = byte(i)
		mb.enqueueCopy([][]byte{payload}, 0, 7, 0)
		mb.mu.Lock()
		m := mb.take(0)
		mb.mu.Unlock()
		if len(m.data) != len(payload) || m.data[0] != byte(i) {
			t.Fatalf("message %d corrupted: len=%d first=%d", i, len(m.data), m.data[0])
		}
		seen[m.slab] = true
		m.consumed(mb)
	}
	if len(seen) > 2 {
		t.Errorf("%d slabs allocated for sequential eager traffic, want <= 2", len(seen))
	}
}

// TestMailboxSlabBacklog: messages staged while earlier ones are still
// queued must survive slab turnover — a backlog spills into fresh slabs
// and nothing is overwritten until the receiver has consumed it.
func TestMailboxSlabBacklog(t *testing.T) {
	mb := newMailbox()
	const n = 200
	mk := func(i int) []byte {
		b := make([]byte, 1000)
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	for i := 0; i < n; i++ {
		mb.enqueueCopy([][]byte{mk(i)}, 0, 7, 0)
	}
	for i := 0; i < n; i++ {
		mb.mu.Lock()
		m := mb.take(0)
		mb.mu.Unlock()
		if !bytes.Equal(m.data, mk(i)) {
			t.Fatalf("backlogged message %d corrupted", i)
		}
		m.consumed(mb)
	}
}

// TestMailboxSlabOversized: a payload larger than the slab granularity
// gets its own slab and round-trips intact.
func TestMailboxSlabOversized(t *testing.T) {
	mb := newMailbox()
	big := make([]byte, msgSlabSize+12345)
	for i := range big {
		big[i] = byte(i * 7)
	}
	mb.enqueueCopy([][]byte{big}, 0, 7, 0)
	mb.enqueueCopy([][]byte{[]byte("small")}, 0, 8, 0)
	mb.mu.Lock()
	m1 := mb.take(0)
	m2 := mb.take(0)
	mb.mu.Unlock()
	if !bytes.Equal(m1.data, big) {
		t.Fatal("oversized payload corrupted")
	}
	if string(m2.data) != "small" {
		t.Fatalf("follow-up message corrupted: %q", m2.data)
	}
	m1.consumed(mb)
	m2.consumed(mb)
}

// TestEagerSlabEndToEnd: a two-rank ping-pong with varied payload sizes
// (all under the eager limit) delivers every payload intact through the
// recycled slabs — the end-to-end guard against premature chunk reuse.
func TestEagerSlabEndToEnd(t *testing.T) {
	const rounds = 300
	mk := func(i int) []byte {
		b := make([]byte, 1+(i*37)%2000)
		for j := range b {
			b[j] = byte(i ^ j)
		}
		return b
	}
	err := Run(cluster.Local(2), func(c *Comm) error {
		buf := make([]byte, 4096)
		for i := 0; i < rounds; i++ {
			want := mk(i)
			if c.Rank() == 0 {
				if err := c.Send(want, 1, 5); err != nil {
					return err
				}
				st, err := c.Recv(buf, 1, 6)
				if err != nil {
					return err
				}
				if !bytes.Equal(buf[:st.Count], want) {
					return fmt.Errorf("round %d: echo corrupted", i)
				}
			} else {
				st, err := c.Recv(buf, 0, 5)
				if err != nil {
					return err
				}
				if !bytes.Equal(buf[:st.Count], want) {
					return fmt.Errorf("round %d: payload corrupted", i)
				}
				if err := c.Send(buf[:st.Count], 0, 6); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEagerSlabBurst: many outstanding eager messages from several senders
// at once (unconsumed backlog under concurrency), then drained in order,
// with a Probe sizing each receive — the pattern the reader's fragment
// exchange uses.
func TestEagerSlabBurst(t *testing.T) {
	const per = 100
	err := Run(cluster.Local(4), func(c *Comm) error {
		if c.Rank() == 0 {
			var mu sync.Mutex
			got := map[int]int{}
			for i := 0; i < 3*per; i++ {
				st, err := c.Probe(AnySource, AnyTag)
				if err != nil {
					return err
				}
				buf := make([]byte, st.Count)
				st, err = c.Recv(buf, st.Source, st.Tag)
				if err != nil {
					return err
				}
				for _, b := range buf {
					if b != byte(st.Tag) {
						return fmt.Errorf("burst payload from %d corrupted", st.Source)
					}
				}
				mu.Lock()
				got[st.Source]++
				mu.Unlock()
			}
			for src := 1; src < 4; src++ {
				if got[src] != per {
					return fmt.Errorf("got %d messages from rank %d, want %d", got[src], src, per)
				}
			}
			return nil
		}
		for i := 0; i < per; i++ {
			payload := make([]byte, 1+(i*13)%700)
			tag := (c.Rank()*per + i) % 128
			for j := range payload {
				payload[j] = byte(tag)
			}
			if err := c.Send(payload, 0, tag); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
