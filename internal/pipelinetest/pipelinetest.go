// Package pipelinetest is the reusable equivalence harness for the
// streamed file-to-query pipeline: it runs one workload — parallel read,
// spatial exchange, per-cell index build, batch range query — through the
// materialized pipeline (ReadPartition + BuildIndex + RangeQuery) and the
// streamed pipeline (ReadStream feeding BuildIndexStream / the one-pass
// RangeQueryFiles), and asserts that every observable agrees rank by rank:
// the geometries each rank reads (order included), its ReadStats, the
// per-cell index cardinalities and exact geometry multisets, the query
// matches, the phase timings, and the final virtual clock with its
// per-kind ledger — bitwise, not within a tolerance, because the streamed
// compositions are built to replay the materialized trajectory exactly.
//
// Tests hand Build a file, a parser constructor, read options, a known
// global envelope, and a query batch; RunAll/AssertEquivalent do the rest.
// The harness is deliberately workload-agnostic so later PRs can pin new
// pipeline variants (different framings, strategies, window shapes, rank
// counts) with one call.
package pipelinetest

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/spatial"
	"repro/internal/wkt"
)

// Mode selects which pipeline composition a Run exercises.
type Mode int

const (
	// Materialized is the two-stage historical shape: ReadPartition
	// materializes every geometry, then the (envelope-given) materialized
	// workloads run over the full local slice.
	Materialized Mode = iota
	// Streamed is the one-pass pipeline: ReadStream batches flow straight
	// into the streaming index builder; per-cell trees bulk-load as each
	// exchange phase completes.
	Streamed
	// Served is the resident-service composition: the same materialized
	// read and index build, but the query batch is submitted by concurrent
	// client goroutines against spatial.ServeQuery's standing service
	// instead of being evaluated inline. Run with RunServe, not Run — it
	// needs a client count.
	Served
)

// Modes lists every pipeline composition RunAll runs. Served is absent:
// it takes a client count, so the serve matrix drives it explicitly.
var Modes = []Mode{Materialized, Streamed}

func (m Mode) String() string {
	switch m {
	case Materialized:
		return "materialized"
	case Streamed:
		return "streamed"
	case Served:
		return "served"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes one workload instance. The envelope must genuinely
// cover the data for the grids of all modes to coincide, except when a
// test deliberately undersizes it to exercise border-cell clamping — the
// equivalence assertions hold either way.
type Config struct {
	File        *pfs.File
	Parser      func() core.Parser
	ReadOpt     core.ReadOptions
	Envelope    geom.Envelope
	GridCells   int
	WindowCells int
	Queries     []geom.Envelope
	Ranks       int

	// Partition, when non-nil, runs every mode over this partition (a
	// skew-aware grid.Adaptive, typically) instead of the uniform grid the
	// modes would build from Envelope and GridCells — the adaptive column
	// of the equivalence matrix.
	Partition grid.Partition

	// World tunes the MPI world a run executes under — most usefully
	// Options.Fault (a deterministic injector, see internal/fault); a lost
	// message needs no tuning, the runtime reports the deadlock it causes
	// as soon as it forms. The zero value keeps the defaults.
	World mpi.Options
	// SinkFault, when non-nil, is consulted before each streamed-mode sink
	// delivery with the rank and zero-based batch index; a non-nil return
	// fails that delivery (the pipeline's sink-error path). Materialized
	// mode has no sink and ignores it.
	SinkFault func(rank, batch int) error
}

// Result captures everything a pipeline mode must reproduce identically,
// one entry per rank.
type Result struct {
	Mode      Mode
	Local     [][]string       // geometries read, WKT, delivery order
	ReadStats []core.ReadStats // the index pass's read statistics
	Batches   []int            // sink deliveries (-1 when the mode has no sink)

	IndexCard []map[int]int      // cell id -> tree cardinality
	IndexSet  []map[int][]string // cell id -> sorted WKT multiset

	// Phase timings and counters that must not drift between modes. Read
	// and Total are deliberately absent: the modes attribute them to
	// different program phases by design, and the final Clock pins the
	// end-to-end trajectory far more strictly.
	BuildPartition []float64
	BuildComm      []float64
	BuildIndexTime []float64
	Indexed        []int64

	QueryPairs  []int64
	QueryRefine []float64
	QueryHits   [][]string // "queryIdx:WKT" matches, sorted

	Clock  []float64        // final virtual time, after both pipelines
	Ledger []simtime.Ledger // the final clock's seconds per kind
}

// Run executes the workload under one mode and collects its Result: first
// the file-to-index pipeline, then the file-to-query pipeline (each a
// self-contained collective pass over the file, so every mode reads the
// file exactly twice and the final clocks are comparable). Any error fails
// the test; chaos runs that expect errors use RunE instead.
func Run(t *testing.T, cfg Config, mode Mode) *Result {
	t.Helper()
	res, errs, worldErr := RunE(cfg, mode)
	if worldErr != nil {
		t.Fatalf("%s pipeline: %v", mode, worldErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s pipeline: rank %d: %v", mode, r, err)
		}
	}
	return res
}

// RunE executes the workload under one mode, capturing failures instead of
// failing a test: errs holds each rank's pipeline error (a rank that
// crashed before returning has a nil entry — its CrashError is the world
// error), and worldErr is what mpi.RunOpt returned. On a fault-free run all
// of them are nil and the Result is complete; after any error the Result is
// partial and only the error observations are meaningful.
func RunE(cfg Config, mode Mode) (*Result, []error, error) {
	res := &Result{
		Mode:           mode,
		Local:          make([][]string, cfg.Ranks),
		ReadStats:      make([]core.ReadStats, cfg.Ranks),
		Batches:        make([]int, cfg.Ranks),
		IndexCard:      make([]map[int]int, cfg.Ranks),
		IndexSet:       make([]map[int][]string, cfg.Ranks),
		BuildPartition: make([]float64, cfg.Ranks),
		BuildComm:      make([]float64, cfg.Ranks),
		BuildIndexTime: make([]float64, cfg.Ranks),
		Indexed:        make([]int64, cfg.Ranks),
		QueryPairs:     make([]int64, cfg.Ranks),
		QueryRefine:    make([]float64, cfg.Ranks),
		QueryHits:      make([][]string, cfg.Ranks),
		Clock:          make([]float64, cfg.Ranks),
		Ledger:         make([]simtime.Ledger, cfg.Ranks),
	}
	env := cfg.Envelope
	iopt := spatial.IndexOptions{GridCells: cfg.GridCells, WindowCells: cfg.WindowCells, Envelope: &env, Partition: cfg.Partition}
	jopt := spatial.JoinOptions{GridCells: cfg.GridCells, WindowCells: cfg.WindowCells, Envelope: &env, Partition: cfg.Partition}

	errs := make([]error, cfg.Ranks)
	var mu sync.Mutex
	worldErr := mpi.RunOpt(cluster.Local(cfg.Ranks), cfg.World, func(c *mpi.Comm) error {
		// fail records the rank's own error before returning it, so chaos
		// tests can assert per-rank outcomes (the returned error also aborts
		// the world, releasing any peers blocked on this rank).
		fail := func(err error) error {
			mu.Lock()
			errs[c.Rank()] = err
			mu.Unlock()
			return err
		}
		f := mpiio.Open(c, cfg.File, mpiio.Hints{})

		// Pipeline 1: file -> per-cell index.
		var local []string
		batches := -1
		var trees map[int]*rtree.Tree[geom.Geometry]
		var g grid.Partition
		var buildBD spatial.Breakdown
		var rstats core.ReadStats
		if mode == Materialized {
			geoms, stats, err := core.ReadPartition(c, f, cfg.Parser(), cfg.ReadOpt)
			if err != nil {
				return fail(err)
			}
			rstats = stats
			for _, gg := range geoms {
				local = append(local, wkt.Format(gg))
			}
			trees, g, buildBD, err = spatial.BuildIndex(c, geoms, iopt)
			if err != nil {
				return fail(err)
			}
		} else {
			s, err := spatial.BuildIndexStream(c, iopt)
			if err != nil {
				return fail(err)
			}
			batches = 0
			rstats, err = core.ReadStream(c, f, cfg.Parser(), cfg.ReadOpt, func(batch []geom.Geometry) error {
				if cfg.SinkFault != nil {
					if ferr := cfg.SinkFault(c.Rank(), batches); ferr != nil {
						batches++
						return ferr
					}
				}
				batches++
				for _, gg := range batch {
					local = append(local, wkt.Format(gg))
				}
				return s.Add(batch)
			})
			if err != nil {
				return fail(err)
			}
			trees, buildBD, err = s.Finish()
			if err != nil {
				return fail(err)
			}
			g = s.Grid()
		}

		// Pipeline 2: file -> range query.
		var queryBD spatial.Breakdown
		if mode == Materialized {
			geoms, _, err := core.ReadPartition(c, f, cfg.Parser(), cfg.ReadOpt)
			if err != nil {
				return fail(err)
			}
			queryBD, err = spatial.RangeQuery(c, geoms, cfg.Queries, jopt)
			if err != nil {
				return fail(err)
			}
		} else {
			var err error
			queryBD, err = spatial.RangeQueryFiles(c, f, cfg.Parser(), cfg.ReadOpt, cfg.Queries, jopt)
			if err != nil {
				return fail(err)
			}
		}
		clock, ledger := c.Now(), c.Ledger()

		// Harness-side captures — pure local computation, no Comm, so the
		// clock above is the pipelines' own.
		card := make(map[int]int, len(trees))
		set := make(map[int][]string, len(trees))
		for cell, tr := range trees {
			card[cell] = tr.Len()
			var ws []string
			tr.Search(tr.Envelope(), func(_ geom.Envelope, v geom.Geometry) bool {
				ws = append(ws, wkt.Format(v))
				return true
			})
			sort.Strings(ws)
			set[cell] = ws
		}
		hits := evalQueries(c.Rank(), c.Size(), g, trees, cfg.Queries)

		mu.Lock()
		r := c.Rank()
		res.Local[r] = local
		res.ReadStats[r] = rstats
		res.Batches[r] = batches
		res.IndexCard[r] = card
		res.IndexSet[r] = set
		res.BuildPartition[r] = buildBD.Partition
		res.BuildComm[r] = buildBD.Comm
		res.BuildIndexTime[r] = buildBD.Index
		res.Indexed[r] = buildBD.Indexed
		res.QueryPairs[r] = queryBD.Pairs
		res.QueryRefine[r] = queryBD.Refine
		res.QueryHits[r] = hits
		res.Clock[r] = clock
		res.Ledger[r] = ledger
		mu.Unlock()
		return nil
	})
	return res, errs, worldErr
}

// RunServe executes the workload under the Served mode — clients concurrent
// client goroutines submitting the query batch against a resident
// serve.Service — and fails the test on any rank, client, or world error.
// The Result is directly comparable to a Materialized Run over the same
// Config: same read output, same index, and (the point of the mode) served
// answers and a final clock that must match the batch query bitwise.
func RunServe(t *testing.T, cfg Config, clients int) *Result {
	t.Helper()
	res, errs, worldErr := RunServeE(cfg, clients)
	if worldErr != nil {
		t.Fatalf("%s pipeline (clients=%d): %v", Served, clients, worldErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s pipeline (clients=%d): rank %d: %v", Served, clients, r, err)
		}
	}
	return res
}

// RunServeE is RunServe's error-capturing form. The query batch is struck
// round-robin across clients goroutines (query i driven by client i mod
// clients, with request id i — the numbering that makes the charge replay
// reproduce the batch clock); the service closes once every client has
// drained its share, releasing the ranks to replay their charges. If the
// world dies before the service ever becomes ready, the deferred Close
// releases any client still parked in Range.
func RunServeE(cfg Config, clients int) (*Result, []error, error) {
	if clients < 1 {
		clients = 1
	}
	res := &Result{
		Mode:           Served,
		Local:          make([][]string, cfg.Ranks),
		ReadStats:      make([]core.ReadStats, cfg.Ranks),
		Batches:        make([]int, cfg.Ranks),
		IndexCard:      make([]map[int]int, cfg.Ranks),
		IndexSet:       make([]map[int][]string, cfg.Ranks),
		BuildPartition: make([]float64, cfg.Ranks),
		BuildComm:      make([]float64, cfg.Ranks),
		BuildIndexTime: make([]float64, cfg.Ranks),
		Indexed:        make([]int64, cfg.Ranks),
		QueryPairs:     make([]int64, cfg.Ranks),
		QueryRefine:    make([]float64, cfg.Ranks),
		QueryHits:      make([][]string, cfg.Ranks),
		Clock:          make([]float64, cfg.Ranks),
		Ledger:         make([]simtime.Ledger, cfg.Ranks),
	}
	env := cfg.Envelope
	iopt := spatial.IndexOptions{GridCells: cfg.GridCells, WindowCells: cfg.WindowCells, Envelope: &env, Partition: cfg.Partition}
	jopt := spatial.JoinOptions{GridCells: cfg.GridCells, WindowCells: cfg.WindowCells, Envelope: &env, Partition: cfg.Partition}

	svc := serve.NewService(cfg.Ranks)
	svc.Record() // the replay is what pins the served clock to the batch one
	var clientErr error
	var clientMu sync.Mutex
	var cwg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		cwg.Add(1)
		go func(ci int) {
			defer cwg.Done()
			select {
			case <-svc.Ready():
			case <-svc.Closed():
				return
			}
			for qi := ci; qi < len(cfg.Queries); qi += clients {
				if _, err := svc.Range(uint64(qi), cfg.Queries[qi]); err != nil {
					clientMu.Lock()
					if clientErr == nil {
						clientErr = fmt.Errorf("client %d query %d: %w", ci, qi, err)
					}
					clientMu.Unlock()
					return
				}
			}
		}(ci)
	}
	// The service closes when the last client finishes — that releases the
	// ranks parked in spatial.Serve to replay their recorded charges.
	go func() {
		cwg.Wait()
		svc.Close()
	}()

	errs := make([]error, cfg.Ranks)
	var mu sync.Mutex
	worldErr := mpi.RunOpt(cluster.Local(cfg.Ranks), cfg.World, func(c *mpi.Comm) error {
		fail := func(err error) error {
			mu.Lock()
			errs[c.Rank()] = err
			mu.Unlock()
			return err
		}
		f := mpiio.Open(c, cfg.File, mpiio.Hints{})

		// Pipeline 1: file -> per-cell index (identical to Materialized).
		geoms, rstats, err := core.ReadPartition(c, f, cfg.Parser(), cfg.ReadOpt)
		if err != nil {
			return fail(err)
		}
		var local []string
		for _, gg := range geoms {
			local = append(local, wkt.Format(gg))
		}
		trees, _, buildBD, err := spatial.BuildIndex(c, geoms, iopt)
		if err != nil {
			return fail(err)
		}

		// Pipeline 2: file -> resident query service.
		geoms2, _, err := core.ReadPartition(c, f, cfg.Parser(), cfg.ReadOpt)
		if err != nil {
			return fail(err)
		}
		queryBD, err := spatial.ServeQuery(c, geoms2, svc, jopt)
		if err != nil {
			return fail(err)
		}
		clock, ledger := c.Now(), c.Ledger()

		card := make(map[int]int, len(trees))
		set := make(map[int][]string, len(trees))
		for cell, tr := range trees {
			card[cell] = tr.Len()
			var ws []string
			tr.Search(tr.Envelope(), func(_ geom.Envelope, v geom.Geometry) bool {
				ws = append(ws, wkt.Format(v))
				return true
			})
			sort.Strings(ws)
			set[cell] = ws
		}
		// The served answers themselves, not a harness re-evaluation: this
		// is the observation that pins service results to the batch oracle.
		var hits []string
		for id, ms := range svc.Matches(c.Rank()) {
			for _, gg := range ms {
				hits = append(hits, fmt.Sprintf("%d:%s", id, wkt.Format(gg)))
			}
		}
		sort.Strings(hits)

		mu.Lock()
		r := c.Rank()
		res.Local[r] = local
		res.ReadStats[r] = rstats
		res.Batches[r] = -1
		res.IndexCard[r] = card
		res.IndexSet[r] = set
		res.BuildPartition[r] = buildBD.Partition
		res.BuildComm[r] = buildBD.Comm
		res.BuildIndexTime[r] = buildBD.Index
		res.Indexed[r] = buildBD.Indexed
		res.QueryPairs[r] = queryBD.Pairs
		res.QueryRefine[r] = queryBD.Refine
		res.QueryHits[r] = hits
		res.Clock[r] = clock
		res.Ledger[r] = ledger
		mu.Unlock()
		return nil
	})
	// If the world died before every rank registered, clients may still be
	// parked in Range waiting on Ready; closing releases them with ErrClosed.
	svc.Close()
	cwg.Wait()
	if worldErr == nil {
		worldErr = clientErr
	}
	return res, errs, worldErr
}

// evalQueries re-evaluates the query batch against the finished trees with
// the same ownership, filter, and reference-point rules the query phase
// applies — the harness's independent record of which geometry matched
// which query, so "query results identical" covers identities, not just
// counts.
func evalQueries(rank, size int, g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], queries []geom.Envelope) []string {
	var hits []string
	rankFor := grid.MappingOf(g)
	for qi, q := range queries {
		qPoly := q.ToPolygon()
		for _, cell := range g.CellsFor(q) {
			if rankFor(cell, size) != rank {
				continue
			}
			tr := trees[cell]
			if tr == nil {
				continue
			}
			for _, gg := range tr.Query(q) {
				if grid.PairRefCell(g, gg.Envelope(), q) != cell {
					continue
				}
				if geom.Intersects(gg, qPoly) {
					hits = append(hits, fmt.Sprintf("%d:%s", qi, wkt.Format(gg)))
				}
			}
		}
	}
	sort.Strings(hits)
	return hits
}

// RunAll executes the workload under every Mode.
func RunAll(t *testing.T, cfg Config) []*Result {
	t.Helper()
	out := make([]*Result, 0, len(Modes))
	for _, m := range Modes {
		out = append(out, Run(t, cfg, m))
	}
	return out
}

// AssertEquivalent fails the test with a field-precise message wherever
// got diverges from want. All comparisons are exact — the streamed
// compositions charge the same costs at the same program points as the
// materialized ones, so even the floating-point trajectories coincide.
func AssertEquivalent(t *testing.T, label string, got, want *Result) {
	t.Helper()
	pair := fmt.Sprintf("%s: %s vs %s", label, got.Mode, want.Mode)
	for r := range want.Local {
		if len(got.Local[r]) != len(want.Local[r]) {
			t.Fatalf("%s: rank %d read %d geometries, want %d", pair, r, len(got.Local[r]), len(want.Local[r]))
		}
		for i := range want.Local[r] {
			if got.Local[r][i] != want.Local[r][i] {
				t.Fatalf("%s: rank %d geometry %d differs:\n got %s\nwant %s", pair, r, i, got.Local[r][i], want.Local[r][i])
			}
		}
		if got.ReadStats[r] != want.ReadStats[r] {
			t.Errorf("%s: rank %d ReadStats drifted:\n got %+v\nwant %+v", pair, r, got.ReadStats[r], want.ReadStats[r])
		}
		if got.Batches[r] >= 0 && want.Batches[r] >= 0 && got.Batches[r] != want.Batches[r] {
			t.Errorf("%s: rank %d delivered %d batches, want %d", pair, r, got.Batches[r], want.Batches[r])
		}
		assertCellsEqual(t, pair, r, got.IndexCard[r], want.IndexCard[r], got.IndexSet[r], want.IndexSet[r])
		if got.BuildPartition[r] != want.BuildPartition[r] {
			t.Errorf("%s: rank %d build Partition %v, want %v", pair, r, got.BuildPartition[r], want.BuildPartition[r])
		}
		if got.BuildComm[r] != want.BuildComm[r] {
			t.Errorf("%s: rank %d build Comm %v, want %v", pair, r, got.BuildComm[r], want.BuildComm[r])
		}
		if got.BuildIndexTime[r] != want.BuildIndexTime[r] {
			t.Errorf("%s: rank %d build Index %v, want %v", pair, r, got.BuildIndexTime[r], want.BuildIndexTime[r])
		}
		if got.Indexed[r] != want.Indexed[r] {
			t.Errorf("%s: rank %d indexed %d, want %d", pair, r, got.Indexed[r], want.Indexed[r])
		}
		if got.QueryPairs[r] != want.QueryPairs[r] {
			t.Errorf("%s: rank %d query pairs %d, want %d", pair, r, got.QueryPairs[r], want.QueryPairs[r])
		}
		if got.QueryRefine[r] != want.QueryRefine[r] {
			t.Errorf("%s: rank %d Refine %v, want %v", pair, r, got.QueryRefine[r], want.QueryRefine[r])
		}
		if len(got.QueryHits[r]) != len(want.QueryHits[r]) {
			t.Fatalf("%s: rank %d has %d query hits, want %d", pair, r, len(got.QueryHits[r]), len(want.QueryHits[r]))
		}
		for i := range want.QueryHits[r] {
			if got.QueryHits[r][i] != want.QueryHits[r][i] {
				t.Fatalf("%s: rank %d hit %d differs:\n got %s\nwant %s", pair, r, i, got.QueryHits[r][i], want.QueryHits[r][i])
			}
		}
		if got.Clock[r] != want.Clock[r] {
			t.Errorf("%s: rank %d final clock %v, want %v", pair, r, got.Clock[r], want.Clock[r])
		}
		if d := got.Ledger[r].Diff(want.Ledger[r]); d != "" {
			t.Errorf("%s: rank %d ledger: %s", pair, r, d)
		}
	}
}

func assertCellsEqual(t *testing.T, pair string, r int, gotCard, wantCard map[int]int, gotSet, wantSet map[int][]string) {
	t.Helper()
	if len(gotCard) != len(wantCard) {
		t.Fatalf("%s: rank %d owns %d indexed cells, want %d", pair, r, len(gotCard), len(wantCard))
	}
	for cell, wantN := range wantCard {
		if gotN, ok := gotCard[cell]; !ok || gotN != wantN {
			t.Fatalf("%s: rank %d cell %d cardinality %d, want %d", pair, r, cell, gotN, wantN)
		}
		gs, ws := gotSet[cell], wantSet[cell]
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("%s: rank %d cell %d member %d differs:\n got %s\nwant %s", pair, r, cell, i, gs[i], ws[i])
			}
		}
	}
}

// AssertAllEquivalent pins every mode's Result to the first (the
// materialized reference), after checking the reference actually indexed
// and matched something — an accidentally empty workload would otherwise
// make every equivalence vacuous.
func AssertAllEquivalent(t *testing.T, label string, results []*Result) {
	t.Helper()
	var indexed, pairs int64
	for r := range results[0].Indexed {
		indexed += results[0].Indexed[r]
		pairs += results[0].QueryPairs[r]
	}
	if indexed == 0 {
		t.Fatalf("%s: reference pipeline indexed nothing; fixture too sparse", label)
	}
	if pairs == 0 {
		t.Fatalf("%s: reference pipeline matched nothing; query batch too sparse", label)
	}
	for _, res := range results[1:] {
		AssertEquivalent(t, label, res, results[0])
	}
}
