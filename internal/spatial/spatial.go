// Package spatial implements the paper's filter-and-refine framework (§4.3)
// and the end-to-end workloads of its evaluation (§5.2): distributed
// spatial join — the exemplar application — plus parallel spatial indexing
// and batch range query. It composes the MPI-Vector-IO pieces: parallel
// file reading, MPI_UNION grid sizing, grid partitioning with all-to-all
// exchange, per-cell R-tree filtering, and exact-geometry refinement with
// duplicate avoidance.
package spatial

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/simtime"
)

// Breakdown is the per-phase timing the paper plots in Figures 17-20. On a
// single rank it holds that rank's times; Aggregate turns it into the
// paper's reported quantity — the maximum across ranks per phase (so the
// total is typically less than the sum, exactly as the paper notes). Every
// phase time but Total is a named sum of simtime kinds over ledger deltas.
type Breakdown struct {
	Read      float64 // parallel I/O + boundary repair + parsing: the reads' ReadStats.Ledger Sums
	Partition float64 // projecting geometries onto grid cells: the Project kind
	Comm      float64 // serialization + all-to-all exchange: the exchanges' ExchangeStats.CommTime
	Index     float64 // per-cell R-tree construction: the Index kind
	Refine    float64 // filter queries + exact intersection tests: the Query kind
	Total     float64 // elapsed virtual time (max across ranks), a clock difference

	// GeomImbalance and ByteImbalance are the exchange load-balance
	// factors (max-rank load over mean-rank load, 1.0 = perfectly even)
	// from core.ExchangeStats — the quantity the skew-aware partitioner
	// exists to shrink. Already rank-identical (the Exchanger reduces them
	// at Finish); a workload with several exchanges reports the worst.
	GeomImbalance float64
	ByteImbalance float64

	Pairs       int64 // join result pairs (summed across ranks)
	Indexed     int64 // geometries inserted into cell indexes (summed)
	Quarantined int64 // exchange frames dropped under SkipBadFrames (summed)
}

// span is one workload's readings of the clock and ledger; end fills the
// phase times that are kinds of the workload's own ledger delta, and Total.
type span struct {
	c      *mpi.Comm
	start  float64
	before simtime.Ledger
}

func begin(c *mpi.Comm) span { return span{c: c, start: c.Now(), before: c.Ledger()} }

func (s span) end(bd *Breakdown) {
	spent := s.c.Ledger().Sub(s.before)
	bd.Partition, bd.Index, bd.Refine = spent[simtime.Project], spent[simtime.Index], spent[simtime.Query]
	bd.Total = s.c.Now() - s.start
}

// Aggregate reduces a per-rank breakdown to the paper's reporting
// convention: per-phase maxima and summed counters, identical on all ranks.
func (b Breakdown) Aggregate(c *mpi.Comm) (Breakdown, error) {
	times := []float64{b.Read, b.Partition, b.Comm, b.Index, b.Refine, b.Total,
		b.GeomImbalance, b.ByteImbalance}
	buf := make([]byte, 8*len(times))
	for i, v := range times {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	maxed, err := c.Allreduce(buf, len(times), mpi.Float64, mpi.OpMaxFloat64)
	if err != nil {
		return b, err
	}
	counts := make([]byte, 24)
	binary.LittleEndian.PutUint64(counts[0:], uint64(b.Pairs))
	binary.LittleEndian.PutUint64(counts[8:], uint64(b.Indexed))
	binary.LittleEndian.PutUint64(counts[16:], uint64(b.Quarantined))
	summed, err := c.Allreduce(counts, 3, mpi.Int64, mpi.OpSumInt64)
	if err != nil {
		return b, err
	}
	get := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(maxed[i*8:]))
	}
	return Breakdown{
		Read: get(0), Partition: get(1), Comm: get(2),
		Index: get(3), Refine: get(4), Total: get(5),
		GeomImbalance: get(6), ByteImbalance: get(7),
		Pairs:       int64(binary.LittleEndian.Uint64(summed[0:])),
		Indexed:     int64(binary.LittleEndian.Uint64(summed[8:])),
		Quarantined: int64(binary.LittleEndian.Uint64(summed[16:])),
	}, nil
}

// JoinOptions configures a distributed spatial join.
type JoinOptions struct {
	// GridCells is the target number of grid cells (laid out near-square);
	// the granularity knob of Figure 17. Zero defaults to 1024.
	GridCells int
	// WindowCells bounds cells per exchange phase (sliding window). Zero
	// exchanges in one phase.
	WindowCells int
	// Predicate is the join predicate θ; nil means geom.Intersects.
	Predicate func(a, b geom.Geometry) bool
	// KeepDuplicates disables reference-point duplicate avoidance (only
	// used to demonstrate why it is needed).
	KeepDuplicates bool
	// Envelope, when non-nil, is a caller-known global data envelope (from
	// dataset metadata, a previous run, or a catalog): the grid is fixed
	// from it up front, skipping the MPI_UNION Allreduce, and the *Files
	// workloads run the one-pass streaming pipeline — reading, partitioning,
	// and exchanging overlap instead of running as separate passes, and the
	// full local geometry slices never exist. Nil keeps the two-pass path:
	// read everything, derive the envelope with the reduction, then
	// exchange. Geometries outside the supplied envelope still partition
	// correctly (projections clamp to the border cells), but a misleadingly
	// small envelope skews the grid, so supply the real bounds or nil.
	Envelope *geom.Envelope
	// Partition, when non-nil, replaces the uniform grid entirely — cell
	// layout AND cell-to-rank placement come from it (a skew-aware
	// grid.Adaptive from core.SamplePartition, typically). It overrides
	// GridCells and Envelope, skips the MPI_UNION reduction, and — like a
	// supplied Envelope — enables the one-pass streamed pipeline. Must be
	// identical on every rank.
	Partition grid.Partition
	// SkipBadFrames forwards core.Partitioner.SkipBadFrames: received
	// exchange frames that fail to decode are quarantined and counted in
	// Breakdown.Quarantined instead of failing the workload.
	SkipBadFrames bool
}

func (o JoinOptions) cells() int {
	if o.GridCells > 0 {
		return o.GridCells
	}
	return 1024
}

// resolvePartition is the one place a workload's partition is fixed, in
// precedence order: opt.Partition verbatim; a uniform near-square grid of
// about opt.cells() cells over the caller's opt.Envelope; the same grid
// over the MPI_UNION envelope reduction (§4.2.2) of local(), evaluated only
// on this branch. A nil local marks a workload that cannot look ahead at
// its data (streamed, served), which must be given one of the first two.
// All inputs are rank-uniform configuration, so every rank takes the same
// branch and the reduction is skipped (or run) collectively. A nil
// Partitioner with a nil error means the world holds no data.
func resolvePartition(c *mpi.Comm, opt JoinOptions, local func() geom.Envelope) (*core.Partitioner, error) {
	g := opt.Partition
	if g == nil {
		var global geom.Envelope
		switch {
		case opt.Envelope != nil:
			if global = *opt.Envelope; global.IsEmpty() {
				return nil, fmt.Errorf("spatial: a supplied envelope must be non-empty")
			}
		case local == nil:
			return nil, fmt.Errorf("spatial: a streamed or served workload requires a Partition or an Envelope")
		default:
			var err error
			if global, err = core.GlobalEnvelope(c, local()); err != nil {
				return nil, fmt.Errorf("spatial: global envelope: %w", err)
			}
			if global.IsEmpty() {
				return nil, nil
			}
		}
		cols, rows := squareDims(opt.cells())
		ug, err := grid.New(global, cols, rows)
		if err != nil {
			return nil, fmt.Errorf("spatial: grid: %w", err)
		}
		g = ug
	}
	return &core.Partitioner{Grid: g, WindowCells: opt.WindowCells, SkipBadFrames: opt.SkipBadFrames}, nil
}

// squareDims factors n into cols x rows as near-square as possible,
// covering at least n cells.
func squareDims(n int) (cols, rows int) {
	cols = int(math.Ceil(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	rows = (n + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	return cols, rows
}

// source is what feeds a workload's exchange: a local slice, or — file
// non-nil — a file streamed through the reader.
type source struct {
	local   []geom.Geometry
	file    *mpiio.File
	parser  core.Parser
	readOpt core.ReadOptions
}

// materialize is a two-pass workload's first pass: unless opt fixes the
// partition, a file is read whole into local for the MPI_UNION reduction.
// It returns the read's ledger Sum (zero when nothing was read).
func (s *source) materialize(c *mpi.Comm, opt JoinOptions) (float64, error) {
	if s.file == nil || opt.Envelope != nil || opt.Partition != nil {
		return 0, nil
	}
	local, stats, err := core.ReadPartition(c, s.file, s.parser, s.readOpt)
	if err != nil {
		return 0, fmt.Errorf("spatial: read: %w", err)
	}
	s.local, s.file = local, nil
	return stats.Ledger.Sum(), nil
}

// Join performs the distributed spatial join of the paper's §5.2 on
// already-read local geometry batches: grid dimensions from MPI_UNION
// (unless JoinOptions fixes the partition), global spatial partitioning of
// both datasets, per-cell R-tree filter on R, exact refinement with
// duplicate avoidance. Returns this rank's un-aggregated breakdown. All
// ranks must call it collectively.
func Join(c *mpi.Comm, localR, localS []geom.Geometry, opt JoinOptions) (Breakdown, error) {
	return join(c, opt, &source{local: localR}, &source{local: localS})
}

// join is the one body of the distributed join, parameterised only by how
// each side is fed: materialize, resolve the partition, exchange R then S
// (a slice through Partitioner.Exchange, a file through core.ReadExchange),
// filter and refine. Read sums the sides' reads, whichever pass ran them
// (attributed by call, not by wall interval); a slice contributes zero.
func join(c *mpi.Comm, opt JoinOptions, srcR, srcS *source) (Breakdown, error) {
	var bd Breakdown
	sp := begin(c)
	for _, src := range []*source{srcR, srcS} {
		read, err := src.materialize(c, opt)
		if err != nil {
			return bd, err
		}
		bd.Read += read
	}
	pt, err := resolvePartition(c, opt, func() geom.Envelope {
		return core.LocalEnvelope(srcR.local).Union(core.LocalEnvelope(srcS.local))
	})
	if err != nil {
		return bd, err
	}
	if pt == nil {
		sp.end(&bd)
		return bd, nil
	}
	exchange := func(src *source) (map[int][]geom.Geometry, core.ReadStats, core.ExchangeStats, error) {
		if src.file != nil {
			return core.ReadExchange(c, src.file, src.parser, src.readOpt, pt)
		}
		cells, stats, err := pt.Exchange(c, src.local)
		return cells, core.ReadStats{}, stats, err
	}
	cellsR, readR, statsR, err := exchange(srcR)
	if err != nil {
		return bd, fmt.Errorf("spatial: exchange R: %w", err)
	}
	cellsS, readS, statsS, err := exchange(srcS)
	if err != nil {
		return bd, fmt.Errorf("spatial: exchange S: %w", err)
	}
	bd.Read += readR.Ledger.Sum() + readS.Ledger.Sum()
	bd.Comm = statsR.CommTime() + statsS.CommTime()
	bd.Quarantined = int64(statsR.FramesQuarantined + statsS.FramesQuarantined)
	bd.GeomImbalance = math.Max(statsR.GeomImbalance, statsS.GeomImbalance)
	bd.ByteImbalance = math.Max(statsR.ByteImbalance, statsS.ByteImbalance)

	joinCells(c, pt.Grid, cellsR, cellsS, opt, &bd)
	sp.end(&bd)
	return bd, nil
}

// joinCells runs the filter and refine phases of the distributed join over
// already-partitioned cells, accumulating counters into bd. It
// is the shared back half of Join (two-pass) and the streamed JoinFiles
// (one-pass). The refine loop itself lives in serve.Session — the same
// filter-and-refine core the resident query service evaluates — with the
// costs charged inline on this rank's clock.
func joinCells(c *mpi.Comm, g grid.Partition, cellsR, cellsS map[int][]geom.Geometry, opt JoinOptions, bd *Breakdown) {
	// Filter phase: per-cell R-tree over the R side, every owned cell in
	// one cellIndexer phase. One real geometry stands for `scale` full-size
	// ones, inserted into a tree that is `scale` times larger.
	ci := newCellIndexer(c)
	_ = ci.phase(cellsR)
	bd.Indexed = ci.indexed

	// Refine phase: query with each S geometry, test exact intersection.
	// Candidate counts follow the *product* of the two densities, so each
	// real candidate pair stands for scale^2 full-size pairs — the filter's
	// per-candidate term and the refinement tests are charged accordingly
	// (Cursor.JoinCell's chargeScale). One cursor for the whole loop: every
	// probe filters into the same recycled candidate buffer.
	cu := querySession(c, g, ci.trees, opt).Cursor()
	charge := func(d float64) { c.Charge(simtime.Query, d) }
	// Query cells in ascending id order: iterating the map directly would
	// charge the per-query costs in random order, and float
	// accumulation order leaks into the virtual clock bit-for-bit (the
	// maporder invariant; vectorio-vet flags the direct loop).
	sCells := make([]int, 0, len(cellsS))
	for cell := range cellsS {
		sCells = append(sCells, cell)
	}
	sort.Ints(sCells)
	for _, cell := range sCells {
		for _, sg := range cellsS[cell] {
			bd.Pairs += cu.JoinCell(cell, sg, charge, nil)
		}
	}
}

// querySession wraps this rank's finished cell trees in the shared
// filter-and-refine evaluation core (see internal/serve): the batch
// workloads drive it with costs charged inline as Query time, the resident
// service drives the same Session concurrently, its charges recorded for a
// later replay or (by default) not computed at all.
func querySession(c *mpi.Comm, g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], opt JoinOptions) *serve.Session {
	return serve.NewSession(serve.SessionConfig{
		Partition:      g,
		Rank:           c.Rank(),
		Size:           c.Size(),
		Scale:          c.Config().Scale(),
		Trees:          trees,
		Predicate:      opt.Predicate,
		KeepDuplicates: opt.KeepDuplicates,
	})
}

// cellIndexer builds one R-tree per owned cell, a phase at a time — the
// single definition of the filter-phase index build, shared by the join
// workloads, the materialized BuildIndex/RangeQuery wrappers, and the
// streaming IndexStream (its phase method is an Exchanger.FinishStream
// sink, so trees rise while later window phases are still exchanging).
// Cells build in ascending id order within each phase and each cell's tree
// is STR bulk-loaded — partitioned cells are build-once/query-many, which
// is exactly BulkLoad's case, and the packed trees answer filter queries
// with fewer node visits than incrementally split ones. The virtual-time
// charge stays pinned to the paper's incremental model (GEOS
// insert-one-at-a-time, §5.2): one IndexInsert per geometry against the
// growing virtual tree size, replayed in insertion order, so Figure 20's
// index-phase times are unchanged by the bulk-loading.
type cellIndexer struct {
	c       *mpi.Comm
	scale   float64
	trees   map[int]*rtree.Tree[geom.Geometry]
	indexed int64

	ids   []int                       // recycled per-phase sorted cell ids
	items []rtree.Item[geom.Geometry] // recycled bulk-load staging
}

func newCellIndexer(c *mpi.Comm) *cellIndexer {
	return &cellIndexer{c: c, scale: c.Config().Scale(), trees: make(map[int]*rtree.Tree[geom.Geometry])}
}

// phase indexes one batch of completed cells. It is an Exchanger
// FinishStream sink and never fails.
func (ci *cellIndexer) phase(cells map[int][]geom.Geometry) error {
	ci.ids = ci.ids[:0]
	for cell := range cells {
		ci.ids = append(ci.ids, cell)
	}
	sort.Ints(ci.ids)
	for _, cell := range ci.ids {
		gs := cells[cell]
		items := ci.items[:0]
		for i, gg := range gs {
			ci.c.Charge(simtime.Index, costmodel.IndexInsert(costmodel.VirtualCount(i, ci.scale))*ci.scale)
			// Storing each geometry by its envelope also primes the lazy
			// envelope cache on this rank's goroutine, before the tree is
			// ever shared — the priming guarantee concurrent serving
			// relies on (serve.NewSession re-asserts it defensively).
			items = append(items, rtree.Item[geom.Geometry]{Env: gg.Envelope(), Value: gg})
		}
		// BulkLoad copies the items into its own sorted slice, so the
		// staging buffer recycles across cells.
		ci.trees[cell] = rtree.BulkLoad(items)
		ci.items = items
		ci.indexed += int64(len(gs))
	}
	return nil
}

// JoinFiles is the end-to-end exemplar: read and partition two vector
// files with MPI-Vector-IO, then join them. Returns the aggregated
// (cross-rank) breakdown, identical on all ranks.
//
// With JoinOptions.Envelope and Partition nil (the default), the two-pass
// pipeline runs: materialize both inputs with ReadPartition, then derive
// the global envelope with the MPI_UNION Allreduce and exchange, as Join
// does. With the partition known up front, the one-pass pipeline runs:
// each file streams through core.ReadExchange, so cell assignment and
// frame encoding overlap I/O and parsing and no rank ever materializes its
// full local geometry slice.
func JoinFiles(c *mpi.Comm, fR, fS *mpiio.File, parser core.Parser, readOpt core.ReadOptions, opt JoinOptions) (Breakdown, error) {
	bd, err := join(c, opt, &source{file: fR, parser: parser, readOpt: readOpt}, &source{file: fS, parser: parser, readOpt: readOpt})
	if err != nil {
		return Breakdown{}, err
	}
	return bd.Aggregate(c)
}

// IndexOptions configures parallel index construction (Figure 20).
type IndexOptions struct {
	// GridCells is the number of grid cells (the paper uses 2048).
	GridCells int
	// WindowCells bounds cells per exchange phase.
	WindowCells int
	// Envelope, when non-nil, is a caller-known global data envelope: the
	// grid is fixed from it up front instead of from the MPI_UNION
	// Allreduce, which is what lets BuildIndexFiles run the one-pass
	// streamed pipeline (and BuildIndex skip the reduction). Geometries
	// outside the supplied envelope still index correctly — projections
	// clamp to the border cells — but a misleadingly small envelope skews
	// the grid, so supply the real bounds or nil.
	Envelope *geom.Envelope
	// Partition, when non-nil, replaces the uniform grid entirely — cell
	// layout AND cell-to-rank placement come from it (a skew-aware
	// grid.Adaptive from core.SamplePartition, typically). It overrides
	// GridCells and Envelope and, like a supplied Envelope, lets the
	// *Files pipelines run one-pass. Must be identical on every rank.
	Partition grid.Partition
	// SkipBadFrames forwards core.Partitioner.SkipBadFrames: received
	// exchange frames that fail to decode are quarantined and counted in
	// Breakdown.Quarantined instead of failing the workload.
	SkipBadFrames bool
}

func (o IndexOptions) cells() int {
	if o.GridCells > 0 {
		return o.GridCells
	}
	return 2048
}

// asJoin is the index options as the JoinOptions the shared pipeline takes
// (IndexOptions is the partitioning subset of JoinOptions).
func (o IndexOptions) asJoin() JoinOptions {
	return JoinOptions{GridCells: o.cells(), WindowCells: o.WindowCells, Envelope: o.Envelope,
		Partition: o.Partition, SkipBadFrames: o.SkipBadFrames}
}

// BuildIndex partitions the local geometries globally and builds one R-tree
// per owned cell — the paper's in-memory spatial indexing workload that
// handles 717 M geometries in 90 s at 320 processes. Returns the cell
// indexes, the grid whose cell ids key them (nil when there is no data),
// and this rank's un-aggregated breakdown.
//
// BuildIndex is the materialized composition over the streamed index core
// (runIndex fed the whole slice in one Add). With IndexOptions.Envelope or
// Partition set, the MPI_UNION reduction is skipped and the grid fixed up
// front — the configuration whose clock trajectory the one-pass
// BuildIndexFiles reproduces exactly.
func BuildIndex(c *mpi.Comm, local []geom.Geometry, opt IndexOptions) (map[int]*rtree.Tree[geom.Geometry], grid.Partition, Breakdown, error) {
	return buildIndex(c, &source{local: local}, opt)
}

// buildIndex is BuildIndex and BuildIndexFiles over either source.
func buildIndex(c *mpi.Comm, src *source, opt IndexOptions) (map[int]*rtree.Tree[geom.Geometry], grid.Partition, Breakdown, error) {
	return runIndex(c, opt.asJoin(), func() geom.Envelope { return core.LocalEnvelope(src.local) }, src, nil)
}

// RangeQuery runs a batch of rectangular range queries against a
// distributed dataset using the same filter-and-refine framework: the data
// is grid-partitioned, queries are evaluated in every cell they overlap,
// and duplicate hits are suppressed by the reference-point rule. The query
// batch is assumed replicated on all ranks (the paper's batch-query
// workload, §4.3). Returns this rank's breakdown; matches are per-rank
// until aggregated.
//
// Like BuildIndex, RangeQuery is a materialized composition over the
// streamed index core. With JoinOptions.Envelope set, the grid is fixed
// from the caller's envelope instead of the MPI_UNION reduction over data
// and queries — queries and data outside it clamp to the border cells —
// which is the configuration the one-pass RangeQueryFiles reproduces
// exactly.
func RangeQuery(c *mpi.Comm, localData []geom.Geometry, queries []geom.Envelope, opt JoinOptions) (Breakdown, error) {
	return rangeQuery(c, &source{local: localData}, queries, opt)
}

// rangeQuery is RangeQuery and RangeQueryFiles over either source.
func rangeQuery(c *mpi.Comm, src *source, queries []geom.Envelope, opt JoinOptions) (Breakdown, error) {
	_, _, bd, err := runIndex(c, opt, func() geom.Envelope {
		env := core.LocalEnvelope(src.local)
		for _, q := range queries {
			env = env.Union(q)
		}
		return env
	}, src, queryCells(c, queries, opt))
	return bd, err
}

// queryCells is the query phase of RangeQuery and RangeQueryFiles: it
// evaluates a replicated rectangular query batch against this rank's cell
// trees with filter-and-refine and reference-point duplicate suppression,
// accumulating matches into bd — a thin batch wrapper over
// serve.Cursor.Range, the same evaluation the resident query service runs
// concurrently: queries in batch order with costs charged inline, so a
// recording service's id-ordered charge replay reproduces this trajectory
// bitwise.
func queryCells(c *mpi.Comm, queries []geom.Envelope, opt JoinOptions) queryPhase {
	return func(g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], bd *Breakdown) {
		cu := querySession(c, g, trees, opt).Cursor()
		charge := func(d float64) { c.Charge(simtime.Query, d) }
		for _, q := range queries {
			bd.Pairs += cu.Range(q, charge, nil)
		}
	}
}
