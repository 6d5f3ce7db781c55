// Package mpi is the message-passing substrate of the reproduction — the
// stand-in for the MPI library (Open MPI / MPICH) the paper builds on. It
// runs an SPMD program with one goroutine per rank and provides the MPI
// feature set MPI-Vector-IO uses: blocking point-to-point with tag/source
// matching and eager/rendezvous protocols, Probe, the collective
// set (Barrier, Bcast, Allgather(v), Alltoallv and its vectored form,
// Reduce, Allreduce, Scan), derived datatypes, and user-defined reduction
// operators (MPI_Op_create). Every receive names its source and tag: there
// are no wildcards, so which message a receive matches never depends on how
// the ranks' goroutines are scheduled.
//
// Collectives are implemented on top of point-to-point with the textbook
// algorithms (binomial trees, dissemination barrier, pairwise exchange,
// Hillis-Steele scan), so the virtual-time cost of a collective emerges from
// the messages it actually sends rather than from a closed-form guess.
//
// Collectives are matched at run time, on every run: each rank numbers the
// collectives it enters, and their messages carry (kind, sequence number,
// agreed arguments), so ranks that call different collectives, in a
// different order, or with different roots or agreed sizes fail with a
// CollectiveMismatchError instead of pairing the wrong calls (match.go).
//
// Every rank carries a virtual clock (see internal/simtime): real bytes move
// in real buffers, while reported durations come from the alpha-beta network
// model of the cluster configuration. The runtime books its own advances to
// simtime.Transport (injection overhead, reduction combines) and
// simtime.Wait (rendezvous); callers charge the rest through Comm.Charge.
package mpi

import (
	"fmt"
	"hash/maphash"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/simtime"
)

// eagerLimit is the message size (bytes) up to which sends complete without
// waiting for the matching receive. Larger messages use the rendezvous
// protocol and block until matched, as real MPI implementations do — this is
// what makes the deadlock-avoidance structure of the paper's Algorithm 1
// (even/odd send-receive ordering) observable.
const eagerLimit = 4096

// World is one SPMD execution context: the set of ranks, their mailboxes,
// and the shared cost-model configuration.
type World struct {
	cfg     *cluster.Config
	n       int
	comms   []*Comm
	boxes   []*mailbox
	syncHub *syncHub
	seed    maphash.Seed // hashes WorldSync keys into collective stamps

	fault FaultInjector

	// blocked[r] is what rank r is currently blocked on (nil when it is
	// running). Written only by rank r; read by any rank assembling a
	// deadlock or crash diagnostic.
	blocked []atomic.Pointer[BlockedOp]

	abortOnce sync.Once
	abortCh   chan struct{}
	abortErr  error
	abortMu   sync.Mutex

	// The wait-for count. idle is the number of ranks parked in a runtime
	// wait plus those that have returned from fn (exited). A rank counts
	// itself (park) under the lock of the wait object it registers in,
	// before the event that could wake it can happen; its waker un-counts
	// it (unpark) under the same lock before waking it. So idle == n with
	// a rank parked means no rank can ever wake another: the world is
	// deadlocked, and deadCh is closed the moment that happens. A rank
	// blocked outside the runtime (on a channel, in a sleep) counts as
	// running, so detection can miss such a deadlock but never misfires —
	// given the Comm contract that only a rank's own goroutine calls its
	// Comm, which makes every waker a counted rank.
	// After a halt (abort or deadlock) the count is no longer exact and
	// no longer read: every wait then returns at once.
	idle, exited atomic.Int32
	wake         []chan struct{} // wake[r] (capacity 1) rouses rank r from sleep
	deadOnce     sync.Once
	deadCh       chan struct{}
	deadPos      []collPos // every rank's collective position as the deadlock formed

	// opByteCost charges CPU time for applying a reduction operator,
	// seconds per byte combined.
	opByteCost float64
}

// Options tunes a World. The zero value gives defaults.
type Options struct {
	// OpByteCost overrides the modeled cost of combining one byte in a
	// reduction (default 0.25 ns/byte).
	OpByteCost float64
	// Fault installs a fault injector consulted at every communicator
	// operation (see FaultInjector). Nil — the default — disables
	// injection; the hook then costs one nil check per operation.
	Fault FaultInjector
}

// Run launches fn on cfg.Size() ranks and waits for all of them. The first
// error (or panic, converted to an error) aborts the world: blocked ranks
// are released with ErrAborted. A deadlock — every rank either blocked in
// the runtime or returned, at least one blocked — releases each blocked
// rank with a DeadlockError the moment it forms. Collectives are matched
// across ranks (see match.go): a disagreement is a CollectiveMismatchError,
// also when every rank returned nil.
func Run(cfg *cluster.Config, fn func(c *Comm) error) error {
	return RunOpt(cfg, Options{}, fn)
}

// RunOpt is Run with explicit options.
func RunOpt(cfg *cluster.Config, opt Options, fn func(c *Comm) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Size()
	w := &World{
		cfg:        cfg,
		n:          n,
		comms:      make([]*Comm, n),
		boxes:      make([]*mailbox, n),
		syncHub:    newSyncHub(n),
		seed:       maphash.MakeSeed(),
		fault:      opt.Fault,
		blocked:    make([]atomic.Pointer[BlockedOp], n),
		abortCh:    make(chan struct{}),
		wake:       make([]chan struct{}, n),
		deadCh:     make(chan struct{}),
		opByteCost: 0.25e-9,
	}
	if opt.OpByteCost > 0 {
		w.opByteCost = opt.OpByteCost
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{w: w, owner: i}
		w.wake[i] = make(chan struct{}, 1)
		w.comms[i] = &Comm{world: w, rank: i}
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			c := w.comms[rank]
			defer wg.Done()
			defer func() {
				c.exited = true
				w.exited.Add(1)
				w.park()
			}()
			defer func() {
				if p := recover(); p != nil {
					if cp, ok := p.(crashPanic); ok {
						err := &CrashError{Rank: rank, OpIndex: cp.op.Index, Op: cp.op.Kind, Blocked: w.snapshotBlocked()}
						errs[rank] = err
						w.abort(err)
						return
					}
					err := fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, p, debug.Stack())
					errs[rank] = err
					w.abort(err)
				}
			}()
			if err := fn(c); err != nil {
				errs[rank] = err
				w.abort(fmt.Errorf("mpi: rank %d: %w", rank, err))
			}
		}(r)
	}
	wg.Wait()

	w.abortMu.Lock()
	aerr := w.abortErr
	w.abortMu.Unlock()
	if aerr != nil {
		return aerr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return w.runEndMismatch()
}

// abort releases every blocked rank with an error. Only the first call wins.
func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		w.abortMu.Lock()
		w.abortErr = err
		w.abortMu.Unlock()
		close(w.abortCh)
	})
}

func (w *World) aborted() bool {
	select {
	case <-w.abortCh:
		return true
	default:
		return false
	}
}

// halted is the error a blocked operation leaves with once the world has
// stopped, or nil while it runs. A deadlock outranks the abort that the
// first DeadlockError to return causes, so every rank parked when the
// deadlock formed reports its own operation.
func (w *World) halted() error {
	select {
	case <-w.deadCh:
		return ErrDeadlock
	default:
	}
	if w.aborted() {
		return ErrAborted
	}
	return nil
}

// park counts one more rank as parked or exited, and declares the deadlock
// when that leaves no rank running while one is parked. A parking rank
// calls it holding the lock of the wait object it registered in; a rank
// calls it once more when it returns from fn.
func (w *World) park() {
	if w.idle.Add(1) == int32(w.n) && w.exited.Load() < int32(w.n) && !w.aborted() {
		w.deadOnce.Do(func() {
			w.deadPos = make([]collPos, w.n)
			for r, c := range w.comms {
				w.deadPos[r] = collPos{last: c.last, in: c.coll.kind != collNone, exited: c.exited}
			}
			close(w.deadCh)
		})
	}
}

// unpark un-counts rank r, registered as parked in a wait object whose lock
// the caller holds, and wakes it.
func (w *World) unpark(r int) {
	w.idle.Add(-1)
	select {
	case w.wake[r] <- struct{}{}:
	default: // a token a halt-woken rank never took
	}
}

// sleep parks rank r, just registered in a wait object guarded by mu, until
// its waker calls unpark or the world halts. The caller holds mu; it is
// released while r sleeps and held again on return.
func (w *World) sleep(r int, mu *sync.Mutex) {
	w.park()
	mu.Unlock()
	select {
	case <-w.wake[r]:
	case <-w.abortCh:
	case <-w.deadCh:
	}
	mu.Lock()
}

// snapshotBlocked collects what every currently blocked rank is waiting on,
// in rank order. Racy by nature — ranks keep moving while the snapshot is
// taken — but each entry is a consistent *BlockedOp published by its own
// rank, which is all a diagnostic needs.
func (w *World) snapshotBlocked() []BlockedOp {
	var out []BlockedOp
	for r := range w.blocked {
		if b := w.blocked[r].Load(); b != nil {
			out = append(out, *b)
		}
	}
	return out
}

// Comm is one rank's handle on the world — the equivalent of
// MPI_COMM_WORLD from that rank's point of view. A Comm is owned by its
// rank's goroutine and must not be shared.
type Comm struct {
	world *World
	rank  int
	clock simtime.Clock

	// opIndex counts communicator operations on this rank, advanced only
	// while a fault injector is installed (see faultPoint).
	opIndex int

	// The collective matching state (see match.go): the collective this
	// rank is in (zero kind outside one), the last one it entered (its seq
	// is the count), and the fold of every entered one's kind and agreed
	// arguments. exited is set once fn has returned.
	coll, last collStamp
	collFP     uint64
	exited     bool

	// eagerBlock is the one-entry chunk list AlltoallvChunks hands its
	// consumer for an eager block, reused: the consumer keeps no chunk list.
	eagerBlock [1][]byte

	// stats
	bytesSent int64
	msgsSent  int64
}

// setBlocked publishes what this rank is about to block on and returns the
// entry so the caller can fold it into a DeadlockError.
func (c *Comm) setBlocked(kind OpKind, peer, tag int, key string) *BlockedOp {
	b := &BlockedOp{Rank: c.rank, Op: kind, Peer: peer, Tag: tag, Key: key, VTime: c.clock.Now()}
	c.world.blocked[c.rank].Store(b)
	return b
}

// clearBlocked marks this rank as running again.
func (c *Comm) clearBlocked() { c.world.blocked[c.rank].Store(nil) }

// Rank returns this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.n }

// Config returns the cluster description backing the cost model.
func (c *Comm) Config() *cluster.Config { return c.world.cfg }

// Now returns this rank's current virtual time in seconds.
func (c *Comm) Now() float64 { return c.clock.Now() }

// Charge advances this rank's clock by d seconds of modeled time, booked
// to the pipeline layer k.
func (c *Comm) Charge(k simtime.Kind, d float64) { c.clock.Advance(k, d) }

// Ledger returns the seconds this rank's clock has booked to each kind.
func (c *Comm) Ledger() simtime.Ledger { return c.clock.Ledger() }

// BytesSent returns the total payload bytes this rank has sent.
func (c *Comm) BytesSent() int64 { return c.bytesSent }

// MsgsSent returns the number of point-to-point messages this rank has sent
// (collectives included, since they are built on point-to-point).
func (c *Comm) MsgsSent() int64 { return c.msgsSent }
