// Package serve turns the batch query path into a resident distributed
// query service over the already-built per-rank cell indexes: the paper's
// partitioned parallel ingest exists to make spatial queries fast, and the
// north-star workload is a standing index hammered by many concurrent
// clients, not a fixed batch evaluated once.
//
// The package splits the query path into two layers:
//
//   - Session is one rank's evaluation core — the filter-and-refine inner
//     loop refactored out of the batch workloads (spatial.RangeQuery and
//     the join are thin wrappers over it). A Session is read-only after
//     construction: the R-trees are immutable once built, every geometry's
//     envelope cache is primed up front, and evaluation writes only through
//     the caller's callbacks — so any number of goroutines may query one
//     Session concurrently.
//   - Service is the in-process frontend: rank goroutines register their
//     Sessions, client goroutines submit requests from outside the MPI
//     world, and a dispatcher routes each request only to the ranks owning
//     grid cells its envelope overlaps (O(1) per cell via the partition's
//     cell-to-rank map, uniform and adaptive alike). Admission queues
//     coalesce concurrent requests into per-rank rounds: while one client
//     drains a rank's queue, requests arriving behind it are admitted by
//     the drainer in its next round instead of waiting for a turn.
//
// A default Service is a function of its data, not of its uptime: a
// request is planned once, evaluated into buffers the rank's drainer owns,
// and handed back; past the Range return the service keeps its per-rank
// Stats counters and nothing else, and it charges no virtual time for
// serving.
//
// The served ≡ batch clock guarantee is what the opt-in replay recorder
// (Service.Record) buys. Evaluation never touches a communicator or the
// virtual clock — the package does not import mpi at all. With the recorder
// installed, each request's virtual-clock costs are recorded per
// (rank, request id) as they are computed, and the rank goroutine replays
// them through Comm.Compute at a single fixed program point after Close
// (ascending request id, original evaluation order within a request), so
// the final virtual clock is bitwise identical to the batch pipeline
// evaluating the same requests in id order — however the real scheduler
// interleaved the serving.
package serve

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
)

// ErrClosed is returned by Range calls admitted after Close.
var ErrClosed = errors.New("serve: service closed")

// SessionConfig describes one rank's share of the distributed index.
type SessionConfig struct {
	// Partition is the cellular decomposition the trees were built over.
	// Must be the rank-uniform partition the exchange used.
	Partition grid.Partition
	// Rank and Size identify this rank's slice of the cell-to-rank map.
	Rank, Size int
	// Scale is the cluster's ByteScale (cluster.Config.Scale()); values
	// below 1 are treated as 1.
	Scale float64
	// Trees holds the finished per-cell R-trees, keyed by cell id, every
	// geometry stored under its own Envelope() (duplicate suppression reads
	// the stored envelope). The map must not change once the Session is
	// constructed.
	Trees map[int]*rtree.Tree[geom.Geometry]
	// Predicate is the refinement predicate; nil means geom.Intersects.
	Predicate func(a, b geom.Geometry) bool
	// KeepDuplicates disables reference-point duplicate avoidance.
	KeepDuplicates bool
}

// Session is one rank's query evaluation core: the filter-and-refine loop
// shared by the batch workloads and the resident Service. It is strictly
// read-only after NewSession returns, so concurrent queries are race-free.
type Session struct {
	p       grid.Partition
	rank    int
	size    int
	scale   float64
	rankFor func(cell, size int) int
	trees   map[int]*rtree.Tree[geom.Geometry]
	pred    func(a, b geom.Geometry) bool
	keepDup bool
	idle    sync.Pool // *Cursor, lent to Session.Range calls
}

// NewSession builds the evaluation core over finished cell trees. It primes
// the envelope cache of every tree-resident geometry on the calling
// goroutine: the lazy envelope memoization is a cache write on first use,
// and refinement reads envelopes, so an unprimed geometry shared by
// concurrent queries would be a data race. Trees built by the spatial
// pipeline are already primed (the index build stores each geometry by its
// envelope); priming here makes the guarantee hold for hand-built trees
// too, at the cost of one read-only pass over already-primed ones.
func NewSession(cfg SessionConfig) *Session {
	s := &Session{
		p:       cfg.Partition,
		rank:    cfg.Rank,
		size:    cfg.Size,
		scale:   cfg.Scale,
		rankFor: grid.MappingOf(cfg.Partition),
		trees:   cfg.Trees,
		pred:    cfg.Predicate,
		keepDup: cfg.KeepDuplicates,
	}
	if s.scale < 1 {
		s.scale = 1
	}
	if s.pred == nil {
		s.pred = geom.Intersects
	}
	for _, tr := range s.trees {
		// Priming is idempotent and order-independent, so iterating the
		// map directly is safe here.
		tr.Search(tr.Envelope(), func(_ geom.Envelope, g geom.Geometry) bool {
			g.Envelope()
			return true
		})
	}
	return s
}

// Cursor is one goroutine's handle on a Session: the shared read-only index
// plus the candidate buffer its probes recycle, so the filter→refine
// hand-off allocates nothing once the buffer has reached its working size.
// Whoever drives a run of probes owns one for the run — a batch loop for
// its batch, a Service rank's drainer for as long as the service stands. A
// Cursor is not for concurrent use; any number may work one Session at once.
type Cursor struct {
	s    *Session
	cand []rtree.Item[geom.Geometry]
}

// Cursor returns a fresh evaluation handle on s.
func (s *Session) Cursor() *Cursor { return &Cursor{s: s} }

// Range is Cursor.Range for callers with no Cursor of their own: safe to
// call from any number of goroutines at once, each call borrowing a pooled
// Cursor for its duration.
func (s *Session) Range(q geom.Envelope, charge func(float64), emit func(geom.Geometry)) int64 {
	cu, _ := s.idle.Get().(*Cursor)
	if cu == nil {
		cu = s.Cursor()
	}
	defer s.idle.Put(cu)
	return cu.Range(q, charge, emit)
}

// Range evaluates one rectangular query against every cell this rank owns
// that the query envelope overlaps — the batch query loop, extracted.
// charge, when non-nil, receives each virtual-clock cost in deterministic
// evaluation order (ascending cell id, candidates in tree order); emit,
// when non-nil, receives each accepted match. Returns the number of
// accepted pairs.
func (cu *Cursor) Range(q geom.Envelope, charge func(float64), emit func(geom.Geometry)) int64 {
	return cu.rangeCells(cu.s.p.CellsFor(q), q, q.ToPolygon(), charge, emit)
}

// rangeCells is Range over an already-routed request: cells is CellsFor(q)
// and qPoly is q.ToPolygon(), both computed once by whoever planned it.
func (cu *Cursor) rangeCells(cells []int, q geom.Envelope, qPoly geom.Geometry, charge func(float64), emit func(geom.Geometry)) int64 {
	s := cu.s
	var pairs int64
	for _, cell := range cells {
		if s.rankFor(cell, s.size) != s.rank {
			continue
		}
		// The query batch is fixed (it does not scale with the dataset),
		// so per-query work is charged once, against the scaled-up tree
		// and hit counts.
		pairs += cu.probeCell(cell, qPoly, q, 1, charge, emit)
	}
	return pairs
}

// JoinCell evaluates one already-partitioned join probe against a single
// cell — the batch join's inner loop, where the exchange has replicated
// each probe into the cells it overlaps and the caller iterates them.
func (cu *Cursor) JoinCell(cell int, sg geom.Geometry, charge func(float64), emit func(geom.Geometry)) int64 {
	return cu.probeCell(cell, sg, sg.Envelope(), cu.s.scale, charge, emit)
}

// probeCell is the shared filter-and-refine core: R-tree filter into the
// cursor's buffer, reference-point duplicate suppression on the stored leaf
// envelopes, exact refinement. chargeScale is the workload's candidate-set
// scale factor: 1 for range queries (the batch is fixed; each real hit
// stands for Scale full-size hits) and Scale for joins (candidate counts
// follow the product of the two densities, so each real pair stands for
// Scale² full-size ones). A nil charge skips the cost model altogether.
func (cu *Cursor) probeCell(cell int, probe geom.Geometry, pEnv geom.Envelope, chargeScale float64, charge func(float64), emit func(geom.Geometry)) int64 {
	s := cu.s
	tr := s.trees[cell]
	if tr == nil {
		return 0
	}
	cu.cand = tr.AppendQuery(cu.cand[:0], pEnv)
	if charge != nil {
		charge(costmodel.IndexQuery(costmodel.VirtualCount(tr.Len(), s.scale), costmodel.VirtualCount(len(cu.cand), s.scale)) * chargeScale)
	}
	probePoints := probe.NumPoints()
	var pairs int64
	for i := range cu.cand {
		c := &cu.cand[i]
		if !s.keepDup && grid.PairRefCell(s.p, c.Env, pEnv) != cell {
			continue
		}
		if charge != nil {
			charge(costmodel.RefineCost(c.Value.NumPoints(), probePoints) * chargeScale * s.scale)
		}
		if s.pred(c.Value, probe) {
			pairs++
			if emit != nil {
				emit(c.Value)
			}
		}
	}
	return pairs
}

// Result is one answered request: the accepted pairs and their identities,
// merged across the ranks the request was routed to in ascending-cell rank
// order — deterministic for a given request, independent of scheduling.
type Result struct {
	ID      uint64
	Pairs   int64
	Matches []geom.Geometry
}

// Stats reports one rank's served-work counters.
type Stats struct {
	// Pairs is the total accepted pairs this rank reported.
	Pairs int64
	// Rounds is the number of admission rounds the rank's queue executed.
	Rounds int
	// Admitted is the number of sub-requests those rounds coalesced; under
	// concurrent clients Admitted exceeds Rounds when admission batching
	// merges queued requests into one drain.
	Admitted int
}

// request is one planned Range call: routed once, then shared read-only by
// the sub-requests its target ranks evaluate.
type request struct {
	id    uint64
	env   geom.Envelope
	cells []int         // CellsFor(env); each target evaluates the ones it owns
	poly  *geom.Polygon // env as the probe polygon, envelope cache primed
	subs  []subRequest  // one per target rank, in ascending-cell order
	done  sync.WaitGroup
}

// subRequest is one request's share on one rank, filled in by that rank's
// drainer and read by the client once request.done releases it.
type subRequest struct {
	req     *request
	rank    int
	pairs   int64
	matches []geom.Geometry
	charges []float64 // recorded only when a recorder is installed
	err     error
}

// recorder is one rank's replay record (see Service.Record).
type recorder struct {
	charges map[uint64][]float64
	matches map[uint64][]geom.Geometry
}

// rankQueue is one rank's admission queue, the evaluation buffers its
// drainer owns, and its served-work counters. mu guards the queue, the
// drainer role, stats and rec's maps; cur, hits and spare belong to
// whichever goroutine holds the drainer role.
type rankQueue struct {
	mu       sync.Mutex
	queue    []*subRequest
	draining bool
	stats    Stats
	rec      *recorder // nil unless Service.Record was called

	cur   *Cursor         // set by Register
	hits  []geom.Geometry // one sub-request's matches before their exact-size copy
	spare []*subRequest   // the last round's queue storage, recycled
}

// Service is the resident query frontend: rank goroutines Register their
// Sessions, client goroutines call Range concurrently, and the rank
// goroutines block in WaitClosed until Close, then replay whatever the
// recorder holds (spatial.Serve packages that rank-side loop). Client
// goroutines never touch a communicator — the whole package is
// communicator-free — so serving cannot race a rank on its own Comm.
type Service struct {
	mu         sync.Mutex
	registered int
	p          grid.Partition
	rankFor    func(cell, size int) int

	ready  chan struct{}
	closed chan struct{}

	ranks []*rankQueue
}

// NewService creates a service for a world of size ranks. Admission opens
// once every rank has registered its Session.
func NewService(size int) *Service {
	sv := &Service{
		ready:  make(chan struct{}),
		closed: make(chan struct{}),
		ranks:  make([]*rankQueue, size),
	}
	for r := range sv.ranks {
		sv.ranks[r] = &rankQueue{}
	}
	return sv
}

// Record installs the replay recorder — free when absent, like
// mpi.Options.Fault. From then on every rank keeps each answered request's
// virtual-clock charges and matches, keyed by request id, for DrainCharges
// and Matches to read back after Close: the record grows with every
// request, which is why it is opt-in and only equivalence harnesses
// install it. Result.Matches share storage with the record, so such a
// harness treats them as read-only. Record must be called before the first
// Register.
func (sv *Service) Record() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.registered > 0 {
		panic("serve: Record called after Register")
	}
	for _, rq := range sv.ranks {
		rq.rec = &recorder{charges: make(map[uint64][]float64), matches: make(map[uint64][]geom.Geometry)}
	}
}

// Register installs rank's Session. Each rank goroutine calls it once; when
// the last rank registers, the partition (rank-uniform by contract) is
// published for routing and admission opens.
func (sv *Service) Register(rank int, s *Session) {
	sv.mu.Lock()
	if sv.ranks[rank].cur == nil {
		sv.registered++
	}
	sv.ranks[rank].cur = s.Cursor()
	if sv.registered == len(sv.ranks) {
		sv.p = s.p
		sv.rankFor = s.rankFor
		close(sv.ready)
	}
	sv.mu.Unlock()
}

// Ready is closed once every rank has registered and admission is open.
func (sv *Service) Ready() <-chan struct{} { return sv.ready }

// Close ends admission: Range calls admitted afterwards fail with
// ErrClosed, and every rank blocked in WaitClosed is released. Callers must
// let outstanding Range calls return before closing; Close is idempotent.
func (sv *Service) Close() {
	sv.mu.Lock()
	select {
	case <-sv.closed:
	default:
		close(sv.closed)
	}
	sv.mu.Unlock()
}

// Closed is closed once Close has been called.
func (sv *Service) Closed() <-chan struct{} { return sv.closed }

// Range answers one rectangular query. It may be called from any number of
// client goroutines (never from a rank goroutine blocked in WaitClosed —
// that would deadlock the drain with the close). The request id must be
// unique per request; it keys the recorder's replay, so batch equivalence
// calls number requests by their batch index. Range blocks until every rank
// has registered, then runs three stages: plan routes the request once,
// admit queues a sub-request on each rank owning a cell the envelope
// overlaps, and drain has the calling goroutine serve whichever target
// queues are idle — queues another client is already draining pick the
// request up in that drainer's next round. An evaluation that panics (a
// caller-supplied Predicate, in practice) fails this request alone, with an
// error naming the panic.
func (sv *Service) Range(id uint64, q geom.Envelope) (Result, error) {
	select {
	case <-sv.ready:
	case <-sv.closed:
		return Result{}, ErrClosed
	}
	select {
	case <-sv.closed:
		return Result{}, ErrClosed
	default:
	}

	req := sv.plan(id, q)
	for i := range req.subs {
		sv.ranks[req.subs[i].rank].admit(&req.subs[i])
	}
	for i := range req.subs {
		sv.ranks[req.subs[i].rank].drain()
	}
	req.done.Wait()

	// Merge in target order. The first target's matches are the result
	// (most requests have one target, or matches on one); later ones append.
	res := Result{ID: id}
	for i := range req.subs {
		sub := &req.subs[i]
		if sub.err != nil {
			return Result{}, sub.err
		}
		res.Pairs += sub.pairs
		if res.Matches == nil {
			res.Matches = sub.matches
		} else {
			res.Matches = append(res.Matches, sub.matches...)
		}
	}
	return res, nil
}

// plan routes one request: its cells, the ranks owning any of them —
// deduplicated in ascending-cell order, the deterministic merge order of
// the result — and the one probe polygon every target refines against,
// its envelope cache primed here because the targets' drainers share it.
func (sv *Service) plan(id uint64, q geom.Envelope) *request {
	req := &request{id: id, env: q, cells: sv.p.CellsFor(q)}
	if len(req.cells) == 0 {
		return req
	}
	req.poly = q.ToPolygon()
	req.poly.Envelope()
	size := len(sv.ranks)
	req.subs = make([]subRequest, 0, min(len(req.cells), size))
routing:
	for _, cell := range req.cells {
		r := sv.rankFor(cell, size)
		for i := range req.subs {
			if req.subs[i].rank == r {
				continue routing
			}
		}
		req.subs = append(req.subs, subRequest{req: req, rank: r})
		if len(req.subs) == size {
			break
		}
	}
	req.done.Add(len(req.subs))
	return req
}

// admit queues one sub-request for the rank's next round.
func (rq *rankQueue) admit(sub *subRequest) {
	rq.mu.Lock()
	rq.queue = append(rq.queue, sub)
	rq.mu.Unlock()
}

// drain runs admission rounds until the rank's queue is empty. Only one
// goroutine drains a rank at a time; everyone else returns immediately and
// relies on the drainer to pick up what they admitted (the drainer
// re-checks the queue under the lock before giving up the role, so nothing
// is stranded).
func (rq *rankQueue) drain() {
	rq.mu.Lock()
	if rq.draining {
		rq.mu.Unlock()
		return
	}
	rq.draining = true
	for len(rq.queue) > 0 {
		round := rq.queue
		rq.queue = rq.spare[:0]
		rq.stats.Rounds++
		rq.stats.Admitted += len(round)
		rq.mu.Unlock()

		for _, sub := range round {
			rq.evaluate(sub)
		}

		rq.mu.Lock()
		for _, sub := range round {
			rq.stats.Pairs += sub.pairs
			if rq.rec != nil && sub.err == nil {
				rq.rec.charges[sub.req.id] = sub.charges
				rq.rec.matches[sub.req.id] = sub.matches
			}
			sub.req.done.Done() // the client may take sub back from here on
		}
		clear(round)
		rq.spare = round
	}
	rq.draining = false
	rq.mu.Unlock()
}

// evaluate answers one sub-request on the drainer's goroutine: matches
// gather in the rank's buffer and leave as one exact-size copy. A panic out
// of the evaluation is contained to this sub-request — pairs and matches
// stay unset, nothing is recorded, the error travels back — so the rest of
// the round is still answered and the drainer role is still released.
func (rq *rankQueue) evaluate(sub *subRequest) {
	req := sub.req
	defer func() {
		if p := recover(); p != nil {
			sub.err = fmt.Errorf("serve: request %d: evaluation panicked on rank %d: %v", req.id, sub.rank, p)
		}
	}()
	var charge func(float64)
	if rq.rec != nil {
		charge = func(d float64) { sub.charges = append(sub.charges, d) }
	}
	rq.hits = rq.hits[:0]
	sub.pairs = rq.cur.rangeCells(req.cells, req.env, req.poly, charge,
		func(g geom.Geometry) { rq.hits = append(rq.hits, g) })
	sub.matches = append([]geom.Geometry(nil), rq.hits...)
}

// WaitClosed blocks until Close. Rank goroutines park here while clients
// query; it is channel-based and touches neither the communicator nor the
// virtual clock, so a parked rank spends no virtual time and cannot trip
// the MPI deadlock watchdog.
func (sv *Service) WaitClosed() { <-sv.closed }

// DrainCharges returns rank's recorded per-request virtual-clock costs in
// ascending request-id order — each request's charges in their original
// evaluation order — and resets them; nil when no recorder is installed.
// The rank goroutine replays the returned sequence through Comm.Compute at
// one fixed program point, which reproduces the batch pipeline's Compute
// sequence exactly: float accumulation order leaks into the virtual clock
// bit for bit, so the replay preserves both grouping and order.
func (sv *Service) DrainCharges(rank int) []float64 {
	rq := sv.ranks[rank]
	rq.mu.Lock()
	defer rq.mu.Unlock()
	if rq.rec == nil {
		return nil
	}
	ids := make([]uint64, 0, len(rq.rec.charges))
	n := 0
	for id, cs := range rq.rec.charges {
		ids = append(ids, id)
		n += len(cs)
	}
	slices.Sort(ids)
	out := make([]float64, 0, n)
	for _, id := range ids {
		out = append(out, rq.rec.charges[id]...)
	}
	clear(rq.rec.charges)
	return out
}

// Matches returns rank's accepted geometries keyed by request id — the
// per-rank attribution of the served answers, for equivalence harnesses;
// empty when no recorder is installed.
func (sv *Service) Matches(rank int) map[uint64][]geom.Geometry {
	rq := sv.ranks[rank]
	rq.mu.Lock()
	defer rq.mu.Unlock()
	if rq.rec == nil {
		return nil
	}
	return maps.Clone(rq.rec.matches)
}

// Stats returns rank's served-work counters.
func (sv *Service) Stats(rank int) Stats {
	rq := sv.ranks[rank]
	rq.mu.Lock()
	defer rq.mu.Unlock()
	return rq.stats
}
