package mpi

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
)

// syncHub implements WorldSync: a zero-virtual-time rendezvous of all ranks
// used by the simulation layers (notably the filesystem model) to compute
// deterministic batch outcomes for operations that are concurrent in
// virtual time. It is an artifact of the simulation, not an MPI feature,
// and charges no virtual time.
type syncHub struct {
	mu       sync.Mutex
	n        int
	sessions map[string]*syncSession
	parked   []int // ranks asleep until the hub's next state change
}

type syncSession struct {
	arrived  int
	departed int
	inputs   []any
	outputs  []any
	done     bool
}

func newSyncHub(n int) *syncHub {
	return &syncHub{n: n, sessions: make(map[string]*syncSession)}
}

// sleep parks the calling rank until the hub's next state change (it then
// re-checks its condition) or a halt, whose error it returns. Caller holds
// h.mu.
func (h *syncHub) sleep(c *Comm) error {
	if err := c.world.halted(); err != nil {
		return err
	}
	h.parked = append(h.parked, c.rank)
	c.world.sleep(c.rank, &h.mu)
	return nil
}

// wakeAll un-parks every rank asleep on the hub. Caller holds h.mu.
func (h *syncHub) wakeAll(w *World) {
	for _, r := range h.parked {
		w.unpark(r)
	}
	h.parked = h.parked[:0]
}

// WorldSync blocks until every rank has called it with the same key, then
// runs compute exactly once (on the last arriving rank) over the inputs
// indexed by rank, and hands outputs[rank] back to each rank. Ranks may
// reuse a key for successive rounds; rounds are kept separate.
func (c *Comm) WorldSync(key string, input any, compute func(inputs []any) []any) (any, error) {
	c.faultPoint(OpSync, -1, 0)
	defer c.leave(c.enter(collSync, maphash.String(c.world.seed, key)))
	bop := c.setBlocked(OpSync, -1, 0, key)
	defer c.clearBlocked()
	out, err := c.worldSync(key, input, compute)
	if err != nil && errors.Is(err, ErrDeadlock) {
		err = c.deadlockError(*bop)
	}
	return out, err
}

// worldSync is the rendezvous body behind WorldSync.
func (c *Comm) worldSync(key string, input any, compute func(inputs []any) []any) (any, error) {
	h := c.world.syncHub
	h.mu.Lock()
	defer h.mu.Unlock()

	// Wait for any previous round on this key to fully drain.
	for {
		s := h.sessions[key]
		if s == nil || !s.done {
			break
		}
		if err := h.sleep(c); err != nil {
			return nil, err
		}
	}
	s := h.sessions[key]
	if s == nil {
		s = &syncSession{inputs: make([]any, h.n)}
		h.sessions[key] = s
	}
	s.inputs[c.rank] = input
	s.arrived++
	if s.arrived == h.n {
		outs := compute(s.inputs)
		if len(outs) != h.n {
			return nil, fmt.Errorf("mpi: WorldSync(%q) compute returned %d outputs for %d ranks",
				key, len(outs), h.n)
		}
		s.outputs = outs
		s.done = true
		h.wakeAll(c.world)
	} else {
		for !s.done {
			if err := h.sleep(c); err != nil {
				return nil, err
			}
		}
	}
	out := s.outputs[c.rank]
	s.departed++
	if s.departed == h.n {
		delete(h.sessions, key)
		h.wakeAll(c.world)
	}
	return out, nil
}
