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
//     Session concurrently. Each tree stores a geometry under its own
//     envelope, and the loop refines from that stored copy: the duplicate
//     rule compares it with the cell's box, and a rectangle probe's kernel
//     reads it in place of the geometry's, so a candidate the rectangle
//     contains is answered without touching the geometry at all.
//   - Service is the in-process frontend: rank goroutines register their
//     Sessions, client goroutines submit requests from outside the MPI
//     world, and a dispatcher routes each request only to the ranks owning
//     grid cells its envelope overlaps (O(1) per cell via the partition's
//     cell-to-rank map, uniform and adaptive alike). The calling client
//     evaluates its own request on each target rank's Session, so the
//     service spawns no goroutine and hands nothing between goroutines:
//     parallel evaluation is bounded by the clients, not by the rank count,
//     and concurrent requests to one rank share only its counters' lock.
//
// A default Service is a function of its data, not of its uptime: a
// request is planned once, evaluated into the buffers of a Cursor borrowed
// from the rank's Session, and handed back; past the Range return the
// service keeps its per-rank Stats counters and nothing else, and it
// charges no virtual time for serving.
//
// The served ≡ batch clock guarantee is what the opt-in replay recorder
// (Service.Record) buys. Evaluation never touches a communicator or the
// virtual clock — the package does not import mpi at all. With the recorder
// installed, each request's virtual-clock costs are recorded per
// (rank, request id) as they are computed, and the rank goroutine replays
// them as Query time at a single fixed program point after Close
// (ascending request id, original evaluation order within a request), so
// the final virtual clock is bitwise identical to the batch pipeline
// evaluating the same requests in id order — however the real scheduler
// interleaved the serving.
package serve

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
)

// ErrClosed is returned by Range calls that start after Close.
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
	// geometry stored under its own Envelope(), bit for bit: duplicate
	// suppression and refinement read the stored envelope in place of the
	// geometry's. NewSession checks this and panics, naming the cell, on a
	// geometry stored under any other envelope. The map must not change
	// once the Session is constructed.
	Trees map[int]*rtree.Tree[geom.Geometry]
	// Predicate is the refinement predicate; nil means geom.Intersects.
	Predicate func(a, b geom.Geometry) bool
	// KeepDuplicates disables reference-point duplicate avoidance.
	KeepDuplicates bool
}

// Session is one rank's query evaluation core: the filter-and-refine loop
// shared by the batch workloads and the resident Service. The index is
// strictly read-only after NewSession returns, so concurrent queries are
// race-free; the only state that changes is the free list of idle Cursors.
type Session struct {
	p       grid.Partition
	rank    int
	size    int
	scale   float64
	rankFor func(cell, size int) int
	trees   map[int]*rtree.Tree[geom.Geometry]
	pred    func(a, b geom.Geometry) bool
	keepDup bool
	// stockPred is set when the caller gave no Predicate: pred is then
	// geom.Intersects, which probeCell may answer for a rectangle probe
	// with the kernel fed stored envelopes.
	stockPred bool

	// idle lends Cursors to Session.Range and the Service alike; it grows to
	// the peak number of concurrent callers. A plain list, not a sync.Pool: a
	// used Pool stays registered with the runtime until the second collection
	// after its last use, and embedded here it would keep the Session — every
	// tree under it — alive that long after the last reference is gone.
	mu   sync.Mutex
	idle []*Cursor
}

// NewSession builds the evaluation core over finished cell trees. It primes
// the envelope cache of every tree-resident geometry on the calling
// goroutine: the lazy envelope memoization is a cache write on first use,
// and refinement reads envelopes, so an unprimed geometry shared by
// concurrent queries would be a data race. Trees built by the spatial
// pipeline are already primed (the index build stores each geometry by its
// envelope); priming here makes the guarantee hold for hand-built trees
// too, at the cost of one read-only pass over already-primed ones. The same
// pass checks that each geometry is stored under its own envelope (see
// SessionConfig.Trees), and panics if one is not.
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
		s.pred, s.stockPred = geom.Intersects, true
	}
	// Priming and the check are order-independent, so iterating the map
	// directly is safe here.
	for cell, tr := range s.trees {
		tr.Search(tr.Envelope(), func(env geom.Envelope, g geom.Geometry) bool {
			if e := g.Envelope(); !sameBits(env, e) {
				panic(fmt.Sprintf("serve: cell %d stores a geometry under %+v, not its Envelope() %+v", cell, env, e))
			}
			return true
		})
	}
	return s
}

// sameBits reports whether a and b are the same envelope bit for bit.
func sameBits(a, b geom.Envelope) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// Cursor is one goroutine's handle on a Session: the shared read-only index
// plus the candidate buffer its probes recycle, so the filter→refine
// hand-off allocates nothing once the buffer has reached its working size.
// Whoever drives a run of probes owns one for the run — a batch loop for
// its batch, a served request for one rank's share of it. A Cursor is not
// for concurrent use; any number may work one Session at once.
type Cursor struct {
	s    *Session
	cand []rtree.Item[geom.Geometry]
	hits []geom.Geometry // a served sub-request's matches before their exact-size copy
}

// Cursor returns a fresh evaluation handle on s.
func (s *Session) Cursor() *Cursor { return &Cursor{s: s} }

// borrow takes an idle Cursor off the free list, or makes one; giveBack
// returns it.
func (s *Session) borrow() *Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return s.Cursor()
	}
	cu := s.idle[n-1]
	s.idle = s.idle[:n-1]
	return cu
}

func (s *Session) giveBack(cu *Cursor) {
	s.mu.Lock()
	s.idle = append(s.idle, cu)
	s.mu.Unlock()
}

// Range is Cursor.Range for callers with no Cursor of their own: safe to
// call from any number of goroutines at once, each call borrowing an idle
// Cursor for its duration.
func (s *Session) Range(q geom.Envelope, charge func(float64), emit func(geom.Geometry)) int64 {
	cu := s.borrow()
	defer s.giveBack(cu)
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
// cursor's buffer, then, per candidate, reference-point duplicate
// suppression and exact refinement, both decided from what the buffer
// holds — the candidate's stored envelope — and values fixed once per
// probe:
//
//   - the duplicate rule is the cell's RefBox, so a candidate is kept iff
//     PairRefCell(p, c.Env, pEnv) == cell, by four comparisons;
//   - with the stock predicate and a rectangle probe (a range query's, or
//     a rectangular join input), refinement is the rectangle kernel handed
//     c.Env, which is Intersects(c.Value, probe) because the stored
//     envelope is the geometry's own (NewSession checks it). A candidate
//     whose envelope the rectangle contains is accepted without touching
//     its geometry. Any other probe, or a caller's Predicate, is refined by
//     s.pred.
//
// chargeScale is the workload's candidate-set scale factor: 1 for range
// queries (the batch is fixed; each real hit stands for Scale full-size
// hits) and Scale for joins (candidate counts follow the product of the two
// densities, so each real pair stands for Scale² full-size ones). A nil
// charge skips the cost model altogether.
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
	box := grid.RefBoxOf(s.p, cell)
	rect, isRect := geom.RectProbe{}, false
	if s.stockPred {
		rect, isRect = geom.AsRect(probe)
	}
	probePoints := probe.NumPoints()
	var pairs int64
	for i := range cu.cand {
		c := &cu.cand[i]
		if !s.keepDup && !box.Owns(c.Env, pEnv) {
			continue
		}
		if charge != nil {
			charge(costmodel.RefineCost(c.Value.NumPoints(), probePoints) * chargeScale * s.scale)
		}
		var hit bool
		if isRect {
			hit = rect.Intersects(c.Value, c.Env)
		} else {
			hit = s.pred(c.Value, probe)
		}
		if hit {
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
	// Rounds always equals Admitted; the field stays only because benchmark/
	// reads it (ROADMAP's "[benchmark] hygiene PR" retires it).
	Rounds int
	// Admitted is the number of sub-requests evaluated on this rank: one per
	// request whose envelope overlaps a cell the rank owns.
	Admitted int
}

// request is one planned Range call: routed once, then evaluated by the
// calling client on each target rank in turn.
type request struct {
	id      uint64
	env     geom.Envelope
	cells   []int         // CellsFor(env); each target evaluates the ones it owns
	poly    *geom.Polygon // env as the probe polygon
	targets []int         // the ranks owning any of cells, in ascending-cell order
}

// recorder is one rank's replay record (see Service.Record).
type recorder struct {
	charges map[uint64][]float64
	matches map[uint64][]geom.Geometry
}

// rankState is one rank's registered Session, its served-work counters and
// its replay record. mu guards stats and rec's maps.
type rankState struct {
	sess *Session // set by Register

	mu    sync.Mutex
	stats Stats
	rec   *recorder // nil unless Service.Record was called
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

	ranks []*rankState
}

// NewService creates a service for a world of size ranks. Range calls are
// answered once every rank has registered its Session.
func NewService(size int) *Service {
	sv := &Service{
		ready:  make(chan struct{}),
		closed: make(chan struct{}),
		ranks:  make([]*rankState, size),
	}
	for r := range sv.ranks {
		sv.ranks[r] = &rankState{}
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
	for _, rs := range sv.ranks {
		rs.rec = &recorder{charges: make(map[uint64][]float64), matches: make(map[uint64][]geom.Geometry)}
	}
}

// Register installs rank's Session. Each rank goroutine calls it once; when
// the last rank registers, the partition (rank-uniform by contract) is
// published for routing and the service is ready.
func (sv *Service) Register(rank int, s *Session) {
	sv.mu.Lock()
	if sv.ranks[rank].sess == nil {
		sv.registered++
	}
	sv.ranks[rank].sess = s
	if sv.registered == len(sv.ranks) {
		sv.p = s.p
		sv.rankFor = s.rankFor
		close(sv.ready)
	}
	sv.mu.Unlock()
}

// Ready is closed once every rank has registered.
func (sv *Service) Ready() <-chan struct{} { return sv.ready }

// Close stops the service: Range calls that start afterwards fail with
// ErrClosed, calls already past that check run to completion and return
// their answer, and every rank blocked in WaitClosed is released. Close may
// race any number of Range calls and is idempotent. Only a recording
// Service (Record) asks more of its callers: a Range still running when
// DrainCharges or Matches is read may add its entry after the read, so a
// harness joins its clients before Close (spatial.Serve drains right after
// WaitClosed).
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
// client goroutines. The request id must be unique per request; it keys the
// recorder's replay, so batch equivalence calls number requests by their
// batch index. Range blocks until every rank has registered, then plans the
// request once and, for each rank owning a cell the envelope overlaps, in
// ascending-cell order, evaluates that rank's share on the calling
// goroutine and merges it into the result. An evaluation that panics (a
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
	// The first target's matches are the result (most requests have one
	// target, or matches on one); later ones append. Every target is
	// evaluated and counted even when an earlier one failed.
	res := Result{ID: id}
	var firstErr error
	for _, r := range req.targets {
		pairs, matches, err := sv.ranks[r].evaluate(r, &req)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res.Pairs += pairs
		if res.Matches == nil {
			res.Matches = matches
		} else {
			res.Matches = append(res.Matches, matches...)
		}
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	return res, nil
}

// plan routes one request: its cells, the ranks owning any of them —
// deduplicated in ascending-cell order, the deterministic merge order of
// the result — and the one probe polygon every target refines against.
func (sv *Service) plan(id uint64, q geom.Envelope) request {
	req := request{id: id, env: q, cells: sv.p.CellsFor(q)}
	if len(req.cells) == 0 {
		return req
	}
	req.poly = q.ToPolygon()
	size := len(sv.ranks)
	req.targets = make([]int, 0, min(len(req.cells), size))
	for _, cell := range req.cells {
		if r := sv.rankFor(cell, size); !slices.Contains(req.targets, r) {
			req.targets = append(req.targets, r)
			if len(req.targets) == size {
				break
			}
		}
	}
	return req
}

// evaluate answers req's share on rank, on the calling client's
// goroutine: matches gather in a borrowed Cursor's buffer and leave as one
// exact-size copy, then the rank's counters — and, when a recorder is
// installed, the request's charges and matches — are booked under mu. A
// panic out of the evaluation is contained to this sub-request: pairs and
// matches stay unset, nothing is recorded, the error travels back, and the
// Cursor and the counters are settled all the same.
func (rs *rankState) evaluate(rank int, req *request) (pairs int64, matches []geom.Geometry, err error) {
	var charges []float64 // recorded only when a recorder is installed
	var charge func(float64)
	if rs.rec != nil {
		charge = func(d float64) { charges = append(charges, d) }
	}
	cu := rs.sess.borrow()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: request %d: evaluation panicked on rank %d: %v", req.id, rank, p)
		}
		rs.sess.giveBack(cu)
		rs.mu.Lock()
		rs.stats.Admitted++
		rs.stats.Rounds++
		rs.stats.Pairs += pairs
		if rs.rec != nil && err == nil {
			rs.rec.charges[req.id] = charges
			rs.rec.matches[req.id] = matches
		}
		rs.mu.Unlock()
	}()
	cu.hits = cu.hits[:0]
	n := cu.rangeCells(req.cells, req.env, req.poly, charge,
		func(g geom.Geometry) { cu.hits = append(cu.hits, g) })
	return n, append([]geom.Geometry(nil), cu.hits...), nil
}

// WaitClosed blocks until Close. Rank goroutines park here while clients
// query; it is channel-based and touches neither the communicator nor the
// virtual clock, so a parked rank spends no virtual time and counts as
// running to the MPI runtime's deadlock detection.
func (sv *Service) WaitClosed() { <-sv.closed }

// DrainCharges returns rank's recorded per-request virtual-clock costs in
// ascending request-id order — each request's charges in their original
// evaluation order — and resets them; nil when no recorder is installed.
// The rank goroutine replays the returned sequence through Comm.Charge at
// one fixed program point, which reproduces the batch pipeline's charge
// sequence exactly: float accumulation order leaks into the virtual clock
// bit for bit, so the replay preserves both grouping and order.
func (sv *Service) DrainCharges(rank int) []float64 {
	rs := sv.ranks[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.rec == nil {
		return nil
	}
	ids := make([]uint64, 0, len(rs.rec.charges))
	n := 0
	for id, cs := range rs.rec.charges {
		ids = append(ids, id)
		n += len(cs)
	}
	slices.Sort(ids)
	out := make([]float64, 0, n)
	for _, id := range ids {
		out = append(out, rs.rec.charges[id]...)
	}
	clear(rs.rec.charges)
	return out
}

// Matches returns rank's accepted geometries keyed by request id — the
// per-rank attribution of the served answers, for equivalence harnesses;
// empty when no recorder is installed.
func (sv *Service) Matches(rank int) map[uint64][]geom.Geometry {
	rs := sv.ranks[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.rec == nil {
		return nil
	}
	return maps.Clone(rs.rec.matches)
}

// Stats returns rank's served-work counters.
func (sv *Service) Stats(rank int) Stats {
	rs := sv.ranks[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.stats
}
