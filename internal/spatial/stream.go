// Streamed indexing and file-to-query pipelines: the streaming pipeline of
// PR 4 (read → partition → exchange, overlapped) extended all the way to
// the paper's query-side workloads. IndexStream consumes Exchanger
// per-phase output incrementally — each grid cell's R-tree is bulk-loaded
// the moment its sliding-window exchange phase completes — and the *Files
// entry points go file → stream → index (→ query) in one pass, so a rank
// never materializes its local geometry slice or its full owned-cells map.
package spatial

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/rtree"
)

// IndexStream is the streaming face of BuildIndex: Add accepts geometry
// batches mid-read (it is a core.ReadStream sink that never touches the
// communicator), and Finish completes the sliding-window exchange, bulk-loading each cell's
// R-tree as that cell's phase lands rather than after a fully
// materialized exchange. Open one with BuildIndexStream; Add is rank-local,
// Finish is collective.
type IndexStream struct {
	g  grid.Partition
	ex *core.Exchanger
	ci *cellIndexer
	sp span // opened with the stream, so the build's breakdown covers it
}

// BuildIndexStream opens a streaming index build. The partition — and so
// the global envelope — must be known up front: IndexOptions.Partition or
// IndexOptions.Envelope is required (when neither is known, read first and
// use the materialized BuildIndex, which derives the envelope with the
// MPI_UNION Allreduce). All ranks must call it collectively with identical
// options. It validates only the shared IndexOptions, so identical options
// fail every rank identically.
func BuildIndexStream(c *mpi.Comm, opt IndexOptions) (*IndexStream, error) {
	return newIndexStream(begin(c), opt.asJoin(), nil)
}

// newIndexStream resolves the partition (see resolvePartition for what a
// nil local means) and opens the streaming exchange over it within span
// sp. A nil stream with a nil error means the world holds no data.
func newIndexStream(sp span, opt JoinOptions, local func() geom.Envelope) (*IndexStream, error) {
	pt, err := resolvePartition(sp.c, opt, local)
	if err != nil || pt == nil {
		return nil, err
	}
	ex, err := pt.Stream(sp.c)
	if err != nil {
		return nil, err
	}
	return &IndexStream{g: pt.Grid, ex: ex, ci: newCellIndexer(sp.c), sp: sp}, nil
}

// Add projects and stages one geometry batch. It is rank-local, never
// touches the clock, and does not retain the batch — which is what lets it
// feed directly from a ReadStream sink, including an overlapped one.
func (s *IndexStream) Add(batch []geom.Geometry) error { return s.ex.Add(batch) }

// Grid returns the partition whose cell ids key the finished trees.
func (s *IndexStream) Grid() grid.Partition { return s.g }

// Finish runs the sliding-window exchange over the staged frames, building
// each completed phase's cell trees as it goes, and returns this rank's
// cell indexes with the build's un-aggregated breakdown (Read is the
// caller's to fill — the stream that fed Add owns that number). All ranks
// must call it collectively, once.
func (s *IndexStream) Finish() (map[int]*rtree.Tree[geom.Geometry], Breakdown, error) {
	return s.finish(nil)
}

// queryPhase is a workload's query phase over the finished trees; it adds
// its counters to bd, and its Query charges become bd.Refine.
type queryPhase func(g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], bd *Breakdown)

// finish is Finish, then the query phase, if any, inside the stream's span.
func (s *IndexStream) finish(query queryPhase) (map[int]*rtree.Tree[geom.Geometry], Breakdown, error) {
	var bd Breakdown
	stats, err := s.ex.FinishStream(s.ci.phase)
	bd.Comm = stats.CommTime()
	bd.Indexed = s.ci.indexed
	bd.Quarantined = int64(stats.FramesQuarantined)
	bd.GeomImbalance = stats.GeomImbalance
	bd.ByteImbalance = stats.ByteImbalance
	if err == nil && query != nil {
		query(s.g, s.ci.trees, &bd)
	}
	s.sp.end(&bd)
	if err != nil {
		return nil, bd, fmt.Errorf("spatial: streamed index: %w", err)
	}
	return s.ci.trees, bd, nil
}

// runIndex is the one body behind BuildIndex, RangeQuery, ServeQuery and
// the *Files pipelines: materialize a file if the partition comes from the
// data, open the IndexStream (which resolves the partition), feed it,
// finish the exchange — trees rise as each sliding-window phase completes,
// so the materialized owned-cells map never exists — then run the
// workload's query phase, if it has one, over the finished trees. Returns
// the cell indexes, the partition whose cell ids key them (nil when the
// world holds no data), and this rank's un-aggregated breakdown; Read is
// the file's read ledger Sum, whichever pass read it (zero for a slice).
func runIndex(c *mpi.Comm, opt JoinOptions, local func() geom.Envelope, src *source, query queryPhase) (map[int]*rtree.Tree[geom.Geometry], grid.Partition, Breakdown, error) {
	sp := begin(c)
	read, err := src.materialize(c, opt)
	if err != nil {
		return nil, nil, Breakdown{}, err
	}
	s, err := newIndexStream(sp, opt, local)
	if err != nil {
		return nil, nil, Breakdown{}, err
	}
	if s == nil {
		bd := Breakdown{Read: read}
		sp.end(&bd)
		return map[int]*rtree.Tree[geom.Geometry]{}, nil, bd, nil
	}
	if src.file == nil {
		_ = s.Add(src.local) // a failed Add is sticky: Finish returns it, after running its collectives
	} else {
		rstats, err := core.ReadStream(c, src.file, src.parser, src.readOpt, s.Add)
		if err != nil {
			// The read settled its error collectively: every rank abandons the
			// exchange here, so nobody is stranded in Finish's collectives.
			return nil, nil, Breakdown{}, fmt.Errorf("spatial: stream: %w", err)
		}
		read = rstats.Ledger.Sum()
	}
	trees, bd, err := s.finish(query)
	bd.Read = read
	if err != nil {
		return nil, nil, bd, err
	}
	return trees, s.g, bd, nil
}

// BuildIndexFiles is the file-to-index pipeline: read a vector file with
// MPI-Vector-IO and build the distributed per-cell R-tree index. With
// IndexOptions.Envelope and Partition nil it runs two passes — materialize
// with ReadPartition, then BuildIndex (MPI_UNION envelope). With the
// partition known up front it runs one pass: parsed batches stream through
// the Exchanger into the per-phase tree builder, so reading, cell
// assignment, frame encoding, and index construction overlap and no rank
// ever holds its full local slice. Returns the cell indexes, the grid, and
// this rank's un-aggregated breakdown. All ranks must call it collectively.
func BuildIndexFiles(c *mpi.Comm, f *mpiio.File, parser core.Parser, readOpt core.ReadOptions, opt IndexOptions) (map[int]*rtree.Tree[geom.Geometry], grid.Partition, Breakdown, error) {
	return buildIndex(c, &source{file: f, parser: parser, readOpt: readOpt}, opt)
}

// RangeQueryFiles is the file-to-query pipeline: read a vector file,
// grid-partition and index it, and evaluate a replicated batch of
// rectangular range queries with filter-and-refine. With
// JoinOptions.Envelope and Partition nil it runs two passes (ReadPartition,
// then RangeQuery); with the partition known up front it runs one pass,
// streaming parsed batches straight into the per-phase index builder and
// querying the trees the moment the last phase lands. Returns this rank's
// un-aggregated breakdown; matches are per-rank until aggregated. All ranks
// must call it collectively.
func RangeQueryFiles(c *mpi.Comm, f *mpiio.File, parser core.Parser, readOpt core.ReadOptions, queries []geom.Envelope, opt JoinOptions) (Breakdown, error) {
	return rangeQuery(c, &source{file: f, parser: parser, readOpt: readOpt}, queries, opt)
}
