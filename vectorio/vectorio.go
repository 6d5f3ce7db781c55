// Package vectorio is the public face of the MPI-Vector-IO reproduction: a
// parallel I/O and partitioning library for geospatial vector data, after
// "MPI-Vector-IO: Parallel I/O and Partitioning for Geospatial Vector Data"
// (Puri, Paudel, Prasad — ICPP 2018).
//
// The library runs SPMD programs over an in-process message-passing runtime
// with a virtual-time cost model calibrated to the paper's clusters (COMET
// with Lustre, ROGER with GPFS), so experiments report full-scale-equivalent
// times while moving real bytes through real algorithms.
//
// A minimal program reads and spatially partitions a WKT file across ranks:
//
//	cfg := vectorio.Local(4)
//	err := vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		f := vectorio.Open(c, pfsFile, vectorio.Hints{})
//		geoms, stats, err := vectorio.ReadPartition(c, f, vectorio.WKTParser{}, vectorio.ReadOptions{})
//		...
//	})
//
// # Parser pooling and buffer ownership
//
// The ingest path is allocation-free in steady state, which imposes two
// ownership rules. First, the record slice a Parser receives is only valid
// for the duration of the Parse call: ReadPartition recycles its block,
// fragment, and assembly buffers between iterations, so a custom Parser
// that retains record bytes must copy them. Second, WKT parsing draws on a
// reusable coordinate arena. The zero value WKTParser{} is safe for
// concurrent use (it borrows pooled scanners); NewWKTParser() returns a
// parser with a dedicated arena — faster on a hot rank, but it must stay on
// one goroutine, typically constructed inside the Run callback:
//
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		p := vectorio.NewWKTParser() // per-rank, not shared
//		geoms, _, err := vectorio.ReadPartition(c, f, p, vectorio.ReadOptions{})
//		...
//	})
//
// Either way, the geometries returned remain valid indefinitely: the arena
// slabs they reference are abandoned to the garbage collector, never
// recycled. Geometries are treated as immutable after construction. Their
// envelopes come for free on parsed geometries: the WKT and WKB scanners
// accumulate the MBR while touching the coordinates and prime the envelope
// cache at parse time, so Envelope() never rescans and parsed geometries
// can cross goroutines with no first-call write hazard. Geometries built
// as struct literals still compute and cache the envelope on the first
// Envelope() call; that first call is a write, so a literal-constructed
// geometry handed to multiple goroutines should have Envelope() called
// once before sharing (see the geom package doc).
//
// # Record framings and the binary WKB path
//
// ReadPartition's record framing is pluggable (ReadOptions.Framing). The
// default, Delimited, reads separator-terminated text — newline-delimited
// WKT. LengthPrefixed reads the binary record layout of the paper's §4.1
// experiments: each record is a little-endian u32 payload length followed
// by that many bytes of WKB (AppendWKBRecord writes one; GenerateEncoded
// with EncodingWKB writes whole datasets). The binary path does no float
// scanning at all, so ingest throughput approaches raw I/O bandwidth
// (paper Figures 12/15 — and benchmark/'s per-layer trace reports
// wkt.parse_mb_s beside wkb.decode_mb_s over the same layer):
//
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		p := vectorio.NewWKBParser() // per-rank, not shared
//		geoms, _, err := vectorio.ReadPartition(c, f, p, vectorio.ReadOptions{
//			Framing: vectorio.LengthPrefixed(),
//		})
//		...
//	})
//
// WKBParser follows the same pooling rules as WKTParser: the zero value is
// concurrency-safe via pooled decoders, NewWKBParser holds a dedicated
// single-goroutine coordinate arena, and either way the returned geometries
// outlive the parser. Because length-prefixed records are not
// self-synchronizing (a length header is indistinguishable from payload
// bytes), binary boundary repair threads phase information between ranks:
// every binary read serializes Algorithm 1's ring exchange into a cheap
// header-hopping chain, whatever ReadOptions.Strategy says, and reads no
// halo, so ReadOptions.MaxGeomSize is ignored and a record may be any
// length. A record whose length header straddles a block boundary is
// reassembled transparently, and a file that ends mid-record fails with a
// truncation error instead of silently dropping the tail.
//
// # One goroutine per rank
//
// A rank reads, repairs boundaries and parses on its own goroutine; the
// library starts no goroutine of its own inside a read. To use more cores,
// run more ranks — Algorithm 1 gives each one its own blocks. The scaling
// row (BenchmarkReadKnobs: ReadPartition of the 35 MB WKT lakes layer,
// -cpu 2 on a 2-vCPU host, medians [quartiles] of 6, ms) is 217 [191–224]
// on 1 rank, 143 [126–177] on 2 and 126 [110–150] on 4.
//
// # Streaming pipeline
//
// ReadPartition materializes every geometry before anything downstream
// runs. The streaming pipeline removes that barrier: ReadStream hands a
// sink bounded, pooled batches (ReadOptions.StreamBatch geometries at
// most) in file order as regions finish parsing, and the Partitioner's
// Exchanger accepts batches mid-read — Add projects and serializes each
// batch on arrival, Finish runs the sliding-window all-to-all over the
// staged frames. Reading, cell assignment, and frame encoding overlap
// instead of running as separate passes, and peak memory drops from the
// full local geometry slice to one batch plus the compact serialized
// frames (benchmark/'s partition_wkb workload measures this path's
// throughput and peak heap).
//
// The grid needs a global envelope before the first cell can be assigned,
// which splits the pipeline into two flavors. One-pass, when the caller
// knows the envelope (dataset metadata, a catalog, a previous run):
//
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		g, err := vectorio.NewGrid(worldEnv, 32, 32)
//		if err != nil {
//			return err
//		}
//		pt := &vectorio.Partitioner{Grid: g}
//		cells, rstats, estats, err := vectorio.ReadExchange(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{}, pt)
//		...
//	})
//
// Two-pass, when the envelope is unknown: read first, derive the envelope
// with the MPI_UNION Allreduce, then exchange. There is one read engine and
// one exchange engine: ReadPartition is ReadStream with a collecting sink,
// and Partitioner.Exchange is literally Stream, one Add of the whole slice,
// Finish:
//
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		local, _, err := vectorio.ReadPartition(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{})
//		if err != nil {
//			return err
//		}
//		env, err := vectorio.GlobalEnvelope(c, vectorio.LocalEnvelope(local))
//		...
//		cells, _, err := pt.Exchange(c, local) // == Stream + Add + Finish
//		...
//	})
//
// Exchange frames are WKB, so when Exchanger.Read (and so ReadExchange)
// reads length-prefixed WKB with the stock WKBParser it forwards the
// file's own record bytes as frame payloads: each record is scanned for
// its type and envelope instead of decoded, staged with one copy, and
// decoded once — on the receiving rank.
// Nothing selects this but the parser and framing passed in; the cells,
// stats and virtual clock are bitwise those of the decode-and-Add path.
// Between stage and decoder a remote frame is not copied at all: stages
// travel as chunk lists (a vectored Alltoallv, no packing), and the
// receiving rank decodes each frame straight from the sender's chunk while
// the sender is held, the decode being the receive's one copy (a small,
// eager block arrives as its private copy). A rank's frames for its own
// cells are never staged at all — each record is decoded once, at Add, and
// its geometry kept for every own cell it falls in.
//
// Because frames are always staged at Add, Partitioner.WindowCells bounds
// each sliding-window phase's message size and the decode memory,
// not the send side: every phase's frames (compact bytes in chunks that are
// never regrown, sent as they are and released phase by phase as
// FinishStream ships them, and the own frames' kept geometries) are held up
// front, on the materialized path on top of the caller's slice. No benchmark workload measures a materialized windowed
// exchange's heap — join_polys, the materialized workload in benchmark/, is
// single-phase.
//
// JoinFiles follows the same split: JoinOptions.Envelope nil runs the
// two-pass pipeline, non-nil runs both inputs through the one-pass
// streamed read-exchange. Custom sinks compose the same way —
// ReadStream's batches arrive on the rank goroutine in deterministic file
// order, a sink error is settled collectively (every rank of the read
// agrees on the outcome, even under SkipErrors), and the batch slice is
// reused after each call while the geometries in it live on. See
// examples/streamingest for a complete one-pass program.
//
// # Streamed indexing and queries
//
// The streaming pipeline extends past the exchange to the paper's
// query-side workloads. The Exchanger's FinishStream delivers each
// sliding-window phase's completed cells the moment that phase's payload
// round lands (a cell's contents never grow after its phase), and
// IndexStream builds on it: Add accepts geometry batches mid-read —
// it is a ReadStream sink — and Finish bulk-loads each cell's R-tree as
// its exchange phase completes, instead of after a fully materialized
// exchange. BuildIndexFiles and RangeQueryFiles are the one-pass entry
// points: file → stream → index (→ query) with no rank ever holding its
// full local slice or owned-cells map. Like JoinFiles, they dispatch on
// the envelope — nil runs the two-pass composition, non-nil fixes the grid
// up front and streams:
//
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		world := vectorio.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
//		bd, err := vectorio.RangeQueryFiles(c, f, vectorio.NewWKTParser(),
//			vectorio.ReadOptions{}, queries,
//			vectorio.JoinOptions{Envelope: &world})
//		...
//	})
//
// The materialized BuildIndex, RangeQuery and ServeQuery run the same body
// as the one-pass entry points — an IndexStream fed the whole slice in one
// Add instead of by ReadStream — so the two compositions produce identical
// per-cell indexes, query results, stats, and virtual-time trajectories;
// internal/pipelinetest pins that equivalence bitwise across framings and
// strategies.
//
// The sink runs on the rank goroutine; to overlap a slow consumer with the
// read, add a rank. See examples/streamquery for the complete file-to-query
// program.
//
// # Skew-aware partitioning
//
// Real vector data piles up where people live, and under the uniform grid
// with round-robin cell ownership a hot cell stays on one rank however
// unlucky that is. SamplePartition is the sample → analyze → tune pass
// that builds a better partition before ingest: every rank stride-samples
// record envelopes from a small file prefix (one collective read), the
// binned per-record loads are Allreduced into a rank-identical histogram,
// a quadtree splits the hot quadrants until each leaf's expected load
// clears cost-model-derived thresholds, and the leaves — ordered along
// the Hilbert space-filling curve — are greedily bin-packed into a
// cell-to-rank placement, so neighboring cells share ranks and every rank
// carries a near-equal share of the sampled load. The returned Adaptive
// partition presents the same Partition surface as the uniform Grid plus
// its own placement, and drops into Partitioner.Grid or the spatial
// workloads' Partition option (JoinOptions.Partition,
// IndexOptions.Partition) in place of the uniform grid:
//
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		part, err := vectorio.SamplePartition(c, f, vectorio.NewWKTParser(),
//			vectorio.ReadOptions{}, vectorio.PartitionOptions{})
//		if err != nil {
//			return err
//		}
//		pt := &vectorio.Partitioner{Grid: part}
//		cells, _, estats, err := vectorio.ReadExchange(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{}, pt)
//		...
//	})
//
// The pass is deterministic and rank-uniform: the same file and options
// build the same partition on every rank, so it composes with every
// pipeline mode — the equivalence matrix of internal/pipelinetest pins
// materialized, streamed, and backpressure runs bitwise-identical under an
// adaptive partition too. ExchangeStats reports each exchange's realized
// balance: GeomImbalance and ByteImbalance are max/mean per-rank load
// factors (1.0 = perfectly balanced), identical on every rank, and
// surfaced through the spatial workloads' Breakdown. The Hotspot dataset
// preset is the extreme-skew stress layer — internal/core's
// TestSkewAdaptiveBeatsUniform pins the adaptive placement below the
// uniform grid's imbalance on it — and the ZipfSkew knob on DatasetSpec
// dials cluster skew for custom ones.
//
// # Resident query service
//
// RangeQuery evaluates one fixed batch and tears the world down; the
// resident service keeps the per-rank cell indexes standing and answers
// queries as they arrive. NewService creates the in-process frontend,
// ServeQuery runs RangeQuery's exact pipeline — partition, exchange,
// per-phase index build, identical virtual-clock trajectory — but parks
// each rank's finished trees behind the service instead of evaluating a
// batch. Client goroutines live outside the MPI world: they call
// Service.Range concurrently (any number at once), and a dispatcher
// routes each request only to the ranks whose grid cells its envelope
// overlaps — O(1) per cell through the partition's cell-to-rank map,
// uniform and adaptive alike — where the calling client evaluates it
// itself, so as many requests run at once as there are clients:
//
//	svc := vectorio.NewService(ranks)
//	go func() { // any number of client goroutines
//		<-svc.Ready()
//		res, err := svc.Range(0, query) // res.Pairs, res.Matches
//		...
//		svc.Close() // last client releases the parked ranks
//	}()
//	vectorio.Run(cfg, func(c *vectorio.Comm) error {
//		local, _, err := vectorio.ReadPartition(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{})
//		...
//		_, err = vectorio.ServeQuery(c, local, svc, vectorio.JoinOptions{Envelope: &world})
//		return err
//	})
//
// Concurrency does not cost determinism: a request's answer is merged in
// ascending-cell rank order and evaluation is read-only over the immutable
// trees (every envelope cache is primed at build, so -race stays quiet
// under any client count). The service as NewService returns it is built
// to be left running: it charges no virtual time for serving, retains
// nothing past a Range return but its per-rank ServeStats counters, and a
// request whose evaluation panics fails alone. The served ≡ batch clock
// guarantee is what the opt-in replay recorder buys: after
// Service.Record (one call, before the ranks register) each request's
// virtual-time costs are recorded off-clock and replayed at one fixed
// program point after Close in ascending request id — so clients that
// number requests by batch index leave the final virtual clock bitwise
// where the batch RangeQuery over the same queries would have, however
// the real scheduler interleaved the serving — at the price of a record
// that grows with every request. internal/pipelinetest installs it and
// pins that equivalence — answers and clock — across partition families
// and client counts, and benchmark/'s serve_range workload measures real
// QPS and latency percentiles on the default service. Session is the underlying single-rank evaluation core (the
// filter-and-refine loop RangeQuery itself runs); NewSession composes
// with hand-built trees when the full pipeline is not wanted. The refine
// step is Intersects: against a query rectangle it costs what the answer
// takes to establish — O(1) for a candidate the rectangle contains, the
// walk to the first boundary crossing for one that straddles it — rather
// than the candidate's vertex count, and the modeled refine charge on the
// virtual clock is independent of that. See examples/servequery for a
// complete program.
//
// # Failure semantics and fault injection
//
// Every collective entry point above settles failure collectively: when
// any rank errors, all ranks return an error, no rank hangs, and no
// goroutine outlives the run. The mechanics differ by failure point, but
// the contract is uniform:
//
//   - A rank returning an error from the Run callback aborts the world;
//     peers blocked in sends, receives, or collectives come back with
//     ErrAborted (MPI_ERRORS_ARE_FATAL semantics).
//   - A lost or never-sent message deadlocks the world, and the runtime
//     reports it the moment it forms: when every rank is either blocked
//     in a communicator operation or has returned from the Run callback,
//     with at least one blocked, no rank can wake another. Each blocked
//     rank then gets a DeadlockError — the diagnostic form of ErrDeadlock,
//     carrying its own operation plus a per-rank dump of what every other
//     rank was blocked on (operation kind, peer, tag, virtual time), the
//     view an MPI debugger would give. No wall clock is involved. The rule
//     has one known miss: a rank blocked outside the runtime (on a
//     channel of its own, say, as a rank serving a Service waits for
//     Close) counts as running, so a deadlock that involves it is not
//     reported. For a caller this means a sink, or a Service's
//     WaitClosed, that blocks on another rank hangs Run forever: there is
//     no timeout.
//   - A rank that dies mid-run (a panic, or an injected crash) tears the
//     world down with a CrashError wrapping ErrAborted, again with the
//     per-rank blocked-operation dump.
//   - Transient filesystem read errors (ErrTransientRead) are absorbed
//     inside the MPI-IO layer by a bounded retry whose backoff is charged
//     to the virtual clock, so an absorbed fault still replays
//     deterministically. Permanent read errors settle collectively: the
//     failing rank reports the concrete error, every other rank
//     ErrRemoteRead; so does a collective read or write one rank rejects.
//   - Parse and sink errors settle the same way through the read's
//     error-agreement round: ErrRemoteParse / ErrRemoteSink on healthy
//     ranks, the concrete error on the failing one.
//   - Corrupted exchange frames fail the receiving rank by default; with
//     Partitioner.SkipBadFrames (forwarded by JoinOptions.SkipBadFrames
//     and IndexOptions.SkipBadFrames) they are quarantined instead —
//     skipped and counted in ExchangeStats.FramesQuarantined /
//     BytesQuarantined and the aggregated Breakdown.Quarantined — and the
//     pipeline completes.
//
// All of it is testable deterministically. RunOpt takes RunOptions whose
// Fault field installs a FaultInjector consulted at every communicator
// operation (nil — the default — costs one nil check). FaultPlan builds
// seeded, replayable injectors from declarative rules: drop, corrupt, or
// delay a message by (rank, op-index, tag); crash a rank at its Nth
// operation; fail filesystem reads at stripe granularity (transient,
// permanent, or short); error a streaming sink; corrupt a received
// exchange frame. The same plan replays bit-identically, and a clean rerun
// after any failed attempt reproduces the no-fault run exactly — the
// chaos matrix in internal/pipelinetest pins both properties across every
// pipeline mode, framing, and strategy:
//
//	plan := vectorio.FaultPlan{Seed: 7, Rules: []vectorio.FaultRule{
//		vectorio.CrashAt(1, 10), // rank 1 dies at its 10th operation
//	}}
//	err := vectorio.RunOpt(cfg, vectorio.RunOptions{Fault: plan.New()},
//		func(c *vectorio.Comm) error { ... })
//	var crash *vectorio.CrashError
//	if errors.As(err, &crash) { ... } // rank, op index, blocked-op dump
//
// # Invariants are machine-checked
//
// The determinism and safety rules this documentation leans on are not
// conventions. Two are checked statically, by TestRepoIsClean
// (internal/analysis) in the repository's own test run: no non-test file
// under internal/ imports package time, so virtual time stays the only
// clock; and errors are wrapped with %w and matched with errors.Is/As
// throughout the error-agreement paths, so the sentinel contracts above
// survive wrapping. The runtime checks one more on every run: every rank
// calls the same collectives in the same order with the same roots and
// agreed sizes. Collective messages carry their kind and sequence number,
// so a rank that skips or reorders a collective fails with a
// CollectiveMismatchError — at the receive that meets the wrong message,
// at the deadlock it forms (still an ErrDeadlock), or, when every rank
// returned nil, at the end of Run — instead of pairing its next call with
// its peers' earlier one. The rest are held by tests: the core pipeline
// starts no goroutine, so only the rank goroutine drives its
// communicator; no recycled read buffer outlives its reuse, which the
// equivalence tests catch as wrong cells; and every modelled cost reaches
// the virtual clock, in an order no map iteration decides. Each charge
// names its layer (Comm.Charge with a simtime.Kind: IO, Parse, Decode,
// Query, ...), every clock keeps a per-kind ledger, and golden tests pin
// each rank's ledger bit for bit, so a dropped, moved or reordered charge
// fails naming its layer. internal/analysis/README.md records the
// mutations behind each of these claims.
//
// See the examples/ directory for complete programs: quickstart (parallel
// read), wkbingest (the binary fast path vs text), streamingest (the
// one-pass streaming pipeline), streamquery (file → index → range query,
// one pass), spatialjoin (the paper's end-to-end exemplar), rangequery
// (filter-and-refine batch queries), servequery (the resident concurrent
// query service) and gridindex (parallel R-tree construction).
package vectorio

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// Message-passing runtime (the MPI substitute): ranks are goroutines,
// point-to-point is blocking with eager/rendezvous protocols, collectives
// are built from point-to-point with textbook algorithms.
type (
	// Comm is one rank's communicator handle (MPI_COMM_WORLD).
	Comm = mpi.Comm
	// Status mirrors MPI_Status for receives and probes.
	Status = mpi.Status
	// Datatype is an MPI derived datatype.
	Datatype = mpi.Datatype
	// Op is a reduction operator (MPI_Op).
	Op = mpi.Op
	// ClusterConfig describes the machine the cost model simulates.
	ClusterConfig = cluster.Config
)

// Run launches fn on every rank of the configured cluster and waits for all
// of them, aborting the world on the first error (MPI_ERRORS_ARE_FATAL).
func Run(cfg *ClusterConfig, fn func(c *Comm) error) error { return mpi.Run(cfg, fn) }

// RunOpt is Run with explicit options: the reduction cost model and the
// fault injector (see "Failure semantics and
// fault injection" in the package documentation).
func RunOpt(cfg *ClusterConfig, opt RunOptions, fn func(c *Comm) error) error {
	return mpi.RunOpt(cfg, opt, fn)
}

// Failure semantics and deterministic fault injection (see the package
// documentation section of the same name).
type (
	// RunOptions tunes a world launched with RunOpt; the zero value gives
	// the Run defaults.
	RunOptions = mpi.Options
	// FaultInjector decides the fate of communicator operations
	// (RunOptions.Fault). FaultPlan.New builds the deterministic one.
	FaultInjector = mpi.FaultInjector
	// FaultPlan is a seeded, declarative fault plan; New instantiates a
	// fresh replayable injector.
	FaultPlan = fault.Plan
	// FaultRule is one declarative fault in a plan — build them with
	// DropAt, DropTag, CorruptTag, DelayTag, CrashAt, TransientRead,
	// PermanentRead, ShortReadAt, SinkErrAt, and FrameCorrupt.
	FaultRule = fault.Rule
	// BlockedOp is one rank's blocked operation in a deadlock or crash
	// diagnostic (operation kind, peer, tag, virtual time).
	BlockedOp = mpi.BlockedOp
	// DeadlockError is the diagnostic form of ErrDeadlock: the reporting
	// rank's blocked operation plus the per-rank blocked-operation dump.
	DeadlockError = mpi.DeadlockError
	// CrashError reports a rank that died mid-run; it wraps ErrAborted and
	// carries the same per-rank blocked-operation dump.
	CrashError = mpi.CrashError
	// CollectiveMismatchError reports two ranks that disagree on the
	// collective sequence; found at a deadlock, it wraps the DeadlockError.
	CollectiveMismatchError = mpi.CollectiveMismatchError
)

// Failure sentinels, usable with errors.Is across the whole pipeline.
var (
	// ErrDeadlock marks a blocking operation that can never complete.
	ErrDeadlock = mpi.ErrDeadlock
	// ErrAborted is what blocked peers see when the world tears down.
	ErrAborted = mpi.ErrAborted
	// ErrInjected wraps every error a FaultPlan injects.
	ErrInjected = fault.ErrInjected
	// ErrTransientRead marks a retryable filesystem read failure.
	ErrTransientRead = pfs.ErrTransientRead
	// ErrRemoteRead reports a coordinated read or write that failed on another rank.
	ErrRemoteRead = mpiio.ErrRemoteRead
	// ErrRemoteParse reports a parse failure on another rank.
	ErrRemoteParse = core.ErrRemoteParse
	// ErrRemoteSink reports a streaming-sink failure on another rank.
	ErrRemoteSink = core.ErrRemoteSink
)

// Fault-rule constructors (wildcards: rank/stripe/op-index -1, file "").
var (
	// DropAt drops rank's op-index'th operation if it is a send.
	DropAt = fault.DropAt
	// DropTag drops rank's first send with the given tag.
	DropTag = fault.DropTag
	// CorruptTag flips one seeded bit in rank's first send with the tag.
	CorruptTag = fault.CorruptTag
	// DelayTag delivers rank's first send with the tag late.
	DelayTag = fault.DelayTag
	// CrashAt kills rank at its op-index'th communicator operation.
	CrashAt = fault.CrashAt
	// TransientRead fails reads of a file stripe retryably, times times.
	TransientRead = fault.TransientRead
	// PermanentRead fails reads of a file stripe outright.
	PermanentRead = fault.PermanentRead
	// ShortReadAt truncates one read of a file stripe.
	ShortReadAt = fault.ShortReadAt
	// SinkErrAt fails rank's batch'th streaming-sink delivery.
	SinkErrAt = fault.SinkErrAt
	// FrameCorrupt corrupts an exchange frame rank receives.
	FrameCorrupt = fault.FrameCorrupt
)

// Cluster presets.
var (
	// Comet models SDSC COMET: 24-core nodes, 16 ranks/node, FDR 56 Gb/s,
	// Lustre with up to 96 OSTs (the paper's Level-0/1 testbed).
	Comet = cluster.Comet
	// Roger models the ROGER CyberGIS cluster: 20 ranks/node, 40 Gb/s,
	// GPFS (the paper's end-to-end testbed).
	Roger = cluster.Roger
	// Local is a single-node configuration for laptops and tests.
	Local = cluster.Local
)

// Parallel filesystem simulation.
type (
	// FS is a simulated parallel filesystem volume.
	FS = pfs.FS
	// PFSFile is a striped file on a simulated volume.
	PFSFile = pfs.File
	// PFSParams selects and tunes the filesystem model.
	PFSParams = pfs.Params
)

// Filesystem presets and constructor.
var (
	// NewFS creates a filesystem volume from parameters.
	NewFS = pfs.New
	// CometLustre is the COMET Lustre model (96 OSTs, striping control).
	CometLustre = pfs.CometLustre
	// RogerGPFS is the ROGER GPFS model (uniform block distribution).
	RogerGPFS = pfs.RogerGPFS
	// BasicNFS is the single-server NFS model of the paper's side note.
	BasicNFS = pfs.BasicNFS
)

// MPI-IO layer (ROMIO substitute): independent and collective reads, file
// views, hints, aggregator selection, the 2 GB single-operation limit.
type (
	// File is an MPI file handle opened across a communicator.
	File = mpiio.File
	// Hints carries cb_nodes / cb_buffer_size (MPI_Info).
	Hints = mpiio.Hints
)

// Open associates a parallel-filesystem file with a communicator.
func Open(c *Comm, f *PFSFile, h Hints) *File { return mpiio.Open(c, f, h) }

// Core library: parallel reading and partitioning of vector data.
type (
	// Parser converts one file record into a geometry (§4.3's flexible
	// interface); WKTParser is the included WKT implementation.
	Parser = core.Parser
	// WKTParser parses newline-delimited WKT records.
	WKTParser = core.WKTParser
	// WKBParser parses binary WKB record payloads (use with the
	// LengthPrefixed framing).
	WKBParser = core.WKBParser
	// Framing selects how a file divides into records (Delimited text or
	// LengthPrefixed binary).
	Framing = core.Framing
	// ReadOptions configures ReadPartition (block size, access level,
	// boundary strategy and halo size for text, framing).
	ReadOptions = core.ReadOptions
	// ReadStats reports one rank's read (ReadPartition, ReadStream, or
	// Exchanger.Read): its counters, and the Ledger of virtual
	// seconds the call booked per kind — IO, Aggregate, Parse, Transport,
	// Wait — whose Sum is the read's elapsed virtual time.
	ReadStats = core.ReadStats
	// AccessLevel selects independent (Level0) or collective (Level1)
	// MPI-IO read functions.
	AccessLevel = core.AccessLevel
	// Strategy selects message-based (Algorithm 1) or overlap boundary
	// handling for text records; binary records ignore it.
	Strategy = core.Strategy
	// Partitioner performs grid-based global spatial partitioning with the
	// two-round all-to-all exchange.
	Partitioner = core.Partitioner
	// Exchanger is the Partitioner's one exchange engine: Add accepts
	// geometry batches (mid-read, for instance as a ReadStream sink) and
	// stages their frames, Read feeds it a whole file, Finish runs the
	// sliding-window exchange over them. Open one with Partitioner.Stream;
	// Partitioner.Exchange is the one-Add composition, ReadExchange the
	// one-Read composition.
	Exchanger = core.Exchanger
	// ExchangeStats reports a rank's partitioning work: its counters, and
	// the Ledger of virtual seconds Finish booked per kind. ProjectTime()
	// is its Project kind, CommTime() its Encode + Decode + Transport +
	// Wait.
	ExchangeStats = core.ExchangeStats
)

// Access levels and strategies (paper Table 1 and §4.1).
const (
	Level0       = core.Level0
	Level1       = core.Level1
	MessageBased = core.MessageBased
	Overlap      = core.Overlap
)

// NewWKTParser returns a WKTParser with a dedicated reusable coordinate
// arena — the fast configuration for per-rank ingest loops. It must not be
// shared between goroutines; see "Parser pooling and buffer ownership" in
// the package documentation.
func NewWKTParser() WKTParser { return core.NewWKTParser() }

// NewWKBParser returns a WKBParser with a dedicated reusable coordinate
// arena — the binary counterpart of NewWKTParser, under the same
// single-goroutine contract.
func NewWKBParser() WKBParser { return core.NewWKBParser() }

// Record framings (see "Record framings and the binary WKB path" in the
// package documentation).
var (
	// Delimited frames separator-terminated text records; Delimited(0)
	// means newline-delimited, the ReadOptions default.
	Delimited = core.Delimited
	// LengthPrefixed frames u32-length-prefixed binary records (WKB
	// payloads).
	LengthPrefixed = core.LengthPrefixed
)

// ReadPartition reads and partitions a vector file across all ranks: every
// rank returns the geometries whose records end inside its partitions
// (Algorithm 1 by default). All ranks must call it collectively.
func ReadPartition(c *Comm, f *File, p Parser, opt ReadOptions) ([]Geometry, ReadStats, error) {
	return core.ReadPartition(c, f, p, opt)
}

// ReadStream is the streaming variant of ReadPartition: geometries flow to
// the sink in bounded, pooled batches, in deterministic file order, as
// regions finish parsing (see "Streaming pipeline" above). All ranks must
// call it collectively.
func ReadStream(c *Comm, f *File, p Parser, opt ReadOptions, sink func(batch []Geometry) error) (ReadStats, error) {
	return core.ReadStream(c, f, p, opt, sink)
}

// ReadExchange is the one-pass streaming pipeline: a parallel file read
// feeding the Partitioner's streaming exchange batch by batch. It requires
// the grid — and so the global envelope — up front. Length-prefixed WKB read
// by WKBParser is forwarded as record bytes, not decoded on the sender (see
// "Streaming pipeline" above). On a read error the exchange never runs: the
// error is returned with the read's ReadStats and zero ExchangeStats. All
// ranks must call it collectively.
func ReadExchange(c *Comm, f *File, p Parser, opt ReadOptions, pt *Partitioner) (map[int][]Geometry, ReadStats, ExchangeStats, error) {
	return core.ReadExchange(c, f, p, opt, pt)
}

// Spatial MPI extensions (paper Table 2): derived datatypes and reduction
// operators for spatial primitives.
var (
	PointType = core.PointType
	LineType  = core.LineType
	RectType  = core.RectType

	OpRectUnion = core.OpRectUnion
	OpRectMin   = core.OpRectMin
	OpRectMax   = core.OpRectMax
	OpPointMin  = core.OpPointMin
	OpPointMax  = core.OpPointMax
	OpLineMin   = core.OpLineMin
	OpLineMax   = core.OpLineMax

	// GlobalEnvelope unions every rank's local envelope with MPI_UNION —
	// how the global grid dimensions are fixed (§4.2.2).
	GlobalEnvelope = core.GlobalEnvelope
	// LocalEnvelope unions the MBRs of a geometry batch.
	LocalEnvelope = core.LocalEnvelope
	// ReduceRects / ScanRects / AllreduceRects run spatial reductions over
	// rectangle arrays (Figure 6's usage pattern).
	ReduceRects    = core.ReduceRects
	ScanRects      = core.ScanRects
	AllreduceRects = core.AllreduceRects
)

// Geometry model (the GEOS substitute).
type (
	// Geometry is any OGC-style geometry (Point, LineString, Polygon,
	// Multi*).
	Geometry = geom.Geometry
	// Point is a 2D point.
	Point = geom.Point
	// Envelope is an axis-aligned bounding rectangle (MBR).
	Envelope = geom.Envelope
	// RTree indexes geometries by envelope.
	RTree = rtree.Tree[geom.Geometry]
)

// Geometry helpers.
var (
	// ParseWKT parses one WKT geometry.
	ParseWKT = wkt.ParseString
	// FormatWKT renders a geometry as WKT.
	FormatWKT = wkt.Format
	// EncodeWKB returns the WKB encoding of a geometry.
	EncodeWKB = wkb.Encode
	// DecodeWKB parses one WKB geometry from the front of a buffer,
	// returning the bytes consumed.
	DecodeWKB = wkb.Decode
	// AppendWKBRecord appends one length-prefixed WKB record — the layout
	// the LengthPrefixed framing ingests.
	AppendWKBRecord = wkb.AppendFramed
	// DecodeWKBRecord decodes one length-prefixed WKB record.
	DecodeWKBRecord = wkb.DecodeFramed
	// Intersects is the exact-geometry intersection predicate used in the
	// refine phase. A rectangle polygon operand (Envelope.ToPolygon) is
	// answered by a rectangle kernel, every other pair by a window-clipped
	// segment-pair test; neither allocates.
	Intersects = geom.Intersects
)

// Filter-and-refine framework and workloads (§4.3, §5.2).
type (
	// JoinOptions configures a distributed spatial join.
	JoinOptions = spatial.JoinOptions
	// IndexOptions configures parallel index construction.
	IndexOptions = spatial.IndexOptions
	// Breakdown is the per-phase timing of Figures 17-20: Read is the
	// reads' ledger Sum, Partition the Project kind, Comm the exchanges'
	// CommTime, Index the Index kind, Refine the Query kind, and Total the
	// elapsed virtual time.
	Breakdown = spatial.Breakdown
	// IndexStream is the streaming face of BuildIndex: Add accepts
	// geometry batches mid-read (a ReadStream sink), Finish bulk-loads
	// each cell's R-tree as its exchange phase completes. Open one with
	// BuildIndexStream (see "Streamed indexing and queries" above).
	IndexStream = spatial.IndexStream
)

// Workload entry points. All are collective calls.
var (
	// Join joins two already-read local geometry batches.
	Join = spatial.Join
	// JoinFiles is the end-to-end exemplar: read, partition and join two
	// vector files.
	JoinFiles = spatial.JoinFiles
	// BuildIndex grid-partitions geometries and builds one R-tree per
	// owned cell (Figure 20's workload).
	BuildIndex = spatial.BuildIndex
	// BuildIndexStream opens a streaming index build (requires
	// IndexOptions.Envelope; feed it from a ReadStream sink).
	BuildIndexStream = spatial.BuildIndexStream
	// BuildIndexFiles reads a vector file and builds the distributed
	// per-cell index — one pass when IndexOptions.Envelope is set.
	BuildIndexFiles = spatial.BuildIndexFiles
	// RangeQuery evaluates a batch of rectangular queries with
	// filter-and-refine.
	RangeQuery = spatial.RangeQuery
	// RangeQueryFiles is the file-to-query pipeline: read, index, and
	// query in one pass when JoinOptions.Envelope is set.
	RangeQueryFiles = spatial.RangeQueryFiles
	// WriteCells writes distributed per-cell results to one shared file in
	// global grid order through a non-contiguous collective write (§4.1's
	// output pattern).
	WriteCells = spatial.WriteCells
)

// Resident query service (see the package documentation section of the
// same name).
type (
	// Service is the in-process resident query frontend: clients call
	// Range concurrently, ranks park behind it via ServeQuery or Serve.
	Service = serve.Service
	// Session is one rank's read-only evaluation core — the
	// filter-and-refine loop the batch workloads are wrappers over; safe
	// for any number of concurrent queriers.
	Session = serve.Session
	// SessionConfig describes one rank's share of the distributed index
	// for NewSession.
	SessionConfig = serve.SessionConfig
	// ServeResult is one answered request: accepted pairs and their
	// identities, merged deterministically across the routed ranks.
	ServeResult = serve.Result
	// ServeStats reports one rank's served-work counters (pairs and the
	// sub-requests evaluated on it).
	ServeStats = serve.Stats
)

// Resident-service constructors, entry points, and sentinel.
var (
	// NewService creates a resident query frontend for a world of the
	// given size.
	NewService = serve.NewService
	// NewSession builds one rank's evaluation core over finished trees.
	NewSession = serve.NewSession
	// Serve parks one rank's finished trees behind a Service until it
	// closes, then charges whatever costs the Service recorded (none,
	// unless Service.Record installed the replay recorder) at a single
	// program point.
	Serve = spatial.Serve
	// ServeQuery is RangeQuery's resident sibling: the same pipeline up
	// through index build, then Serve. Requires the partition up front
	// (JoinOptions.Partition or a non-empty Envelope).
	ServeQuery = spatial.ServeQuery
	// ErrServeClosed is returned by Service.Range after Close.
	ErrServeClosed = serve.ErrClosed
)

// Grid construction for custom partitioning pipelines.
type (
	// Grid is the uniform cellular grid of §4.2.
	Grid = grid.Grid
	// Partition is the cellular-decomposition surface both the uniform
	// Grid and the skew-aware Adaptive partition satisfy; Partitioner.Grid
	// and the spatial workloads' Partition options accept either.
	Partition = grid.Partition
	// Adaptive is the skew-aware partition: quadtree leaves over a sampled
	// load histogram, Hilbert-ordered and bin-packed into a cell-to-rank
	// placement (see "Skew-aware partitioning" above).
	Adaptive = grid.Adaptive
	// Histogram is the binned load sample BuildAdaptive analyzes.
	Histogram = grid.Histogram
	// AdaptiveOptions tunes BuildAdaptive's splitting and packing.
	AdaptiveOptions = grid.AdaptiveOptions
	// PartitionOptions configures SamplePartition's sampling pass.
	PartitionOptions = core.PartitionOptions
)

// Grid and partition constructors.
var (
	// NewGrid builds a uniform cellular grid over an envelope.
	NewGrid = grid.New
	// NewHistogram builds an empty load histogram over an envelope.
	NewHistogram = grid.NewHistogram
	// BuildAdaptive analyzes a reduced histogram into the tuned partition.
	BuildAdaptive = grid.BuildAdaptive
)

// SamplePartition is the sample → analyze → tune pass that builds the
// skew-aware Adaptive partition from a file prefix before ingest (see
// "Skew-aware partitioning" in the package documentation). All ranks must
// call it collectively.
func SamplePartition(c *Comm, f *File, p Parser, opt ReadOptions, popt PartitionOptions) (*Adaptive, error) {
	return core.SamplePartition(c, f, p, opt, popt)
}

// Synthetic dataset generation (the OSM-extract substitute).
type (
	// DatasetSpec describes one Table 3 dataset in full-scale terms.
	DatasetSpec = datagen.Spec
	// DatasetStats reports what a generation run produced.
	DatasetStats = datagen.Stats
	// DatasetEncoding selects the on-disk record format of a generated
	// dataset (EncodingWKT or EncodingWKB).
	DatasetEncoding = datagen.Encoding
)

// Dataset record encodings.
const (
	// EncodingWKT writes newline-delimited WKT text.
	EncodingWKT = datagen.EncodingWKT
	// EncodingWKB writes length-prefixed binary WKB records.
	EncodingWKB = datagen.EncodingWKB
)

// Table 3 dataset presets and generators.
var (
	Cemetery    = datagen.Cemetery
	Lakes       = datagen.Lakes
	Roads       = datagen.Roads
	AllObjects  = datagen.AllObjects
	RoadNetwork = datagen.RoadNetwork
	AllNodes    = datagen.AllNodes
	AllDatasets = datagen.AllDatasets
	// Hotspot is the extreme-skew stress preset (not part of Table 3):
	// a steep-Zipf point layer whose hottest clusters hold most of the
	// records — the dataset the skew-aware partition is benchmarked on.
	Hotspot = datagen.Hotspot

	// Generate writes a scaled dataset as newline-delimited WKT.
	Generate = datagen.Generate
	// GenerateEncoded writes a scaled dataset in an explicit record
	// encoding (text or binary).
	GenerateEncoded = datagen.GenerateEncoded
	// GenerateFile generates a dataset onto a simulated filesystem.
	GenerateFile = datagen.GenerateFile
	// GenerateFileEncoded is GenerateFile with an explicit record encoding.
	GenerateFileEncoded = datagen.GenerateFileEncoded
)
