package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/simtime"
	"repro/internal/wkb"
)

// exchangeHeader is the byte size of one exchange frame's header:
// [cell uint32][payload length uint32].
const exchangeHeader = 8

// checkFrame range-checks both header fields of one [cell u32][len u32]
// [wkb payload] exchange frame before anything is staged: a grid with more
// than 2^32 cells or a geometry whose WKB exceeds 4 GiB would otherwise wrap
// silently and deframe as garbage on the receiving rank.
func checkFrame(cell, plen int) error {
	if cell < 0 || int64(cell) > math.MaxUint32 {
		return fmt.Errorf("core: exchange cell id %d overflows the u32 frame header", cell)
	}
	if int64(plen) > math.MaxUint32 {
		return fmt.Errorf("core: exchange payload of %d bytes overflows the u32 frame header", plen)
	}
	return nil
}

// Staging chunk sizes. A stage's first chunk holds minChunk bytes and each
// later one doubles up to maxChunk, after which every chunk is maxChunk —
// so a sparse (phase, destination) pair of a fine sliding window over many
// ranks costs a small buffer rather than a full chunk. A frame larger than
// the next chunk gets a chunk of exactly its size.
const (
	minChunk     = 1 << 10
	chunkDoubles = 6
	maxChunk     = minChunk << chunkDoubles // 64 KiB
)

// frameStage is one (phase, destination) pair's exchange frames. A remote
// destination's frames are staged as bytes, in chunks that are filled in
// place and never regrown: a frame is reserved at its payload's exact
// length and never straddles two chunks, so the chunk list itself is what
// the payload round sends — no staged byte is copied before it reaches the
// transport. The rank's own frames never enter the transport, so they are
// never staged as bytes: each is kept as its decoded geometry (keep), and
// size still counts the bytes its frame would have staged.
type frameStage struct {
	chunks [][]byte    // remote stages: each chunk's length is its used prefix
	kept   []keptFrame // the own stage: its frames, decoded, in addition order
	size   int         // the frames' bytes, staged or kept
}

// keptFrame is one frame of the rank's own stage, held decoded.
type keptFrame struct {
	cell int
	g    geom.Geometry
}

// frame reserves one frame for cell with a payload of plen bytes (already
// checked by checkFrame), writes its header, and returns the payload slot,
// capped at plen bytes.
func (s *frameStage) frame(cell, plen int) []byte {
	size := exchangeHeader + plen
	var b []byte
	if k := len(s.chunks); k > 0 && cap(s.chunks[k-1])-len(s.chunks[k-1]) >= size {
		c := s.chunks[k-1]
		s.chunks[k-1] = c[:len(c)+size]
		b = c[len(c) : len(c)+size : len(c)+size]
	} else {
		b = make([]byte, size, max(minChunk<<min(k, chunkDoubles), size))
		s.chunks = append(s.chunks, b)
		b = b[:size:size]
	}
	s.size += size
	binary.LittleEndian.PutUint32(b, uint32(cell))
	binary.LittleEndian.PutUint32(b[4:], uint32(plen))
	return b[exchangeHeader:]
}

// keep holds one own frame for cell as g, the decode of its plen-byte
// payload, counting the bytes the frame would have staged.
func (s *frameStage) keep(cell, plen int, g geom.Geometry) {
	s.kept = append(s.kept, keptFrame{cell: cell, g: g})
	s.size += exchangeHeader + plen
}

// encode returns the kept frames as the one contiguous part staging them
// would have produced: the encoding is canonical, so wkb.Append of a kept
// geometry is its payload byte for byte.
func (s *frameStage) encode() []byte {
	part := make([]byte, 0, s.size)
	for _, k := range s.kept {
		at := len(part)
		part = binary.LittleEndian.AppendUint32(part, uint32(k.cell))
		part = wkb.Append(append(part, 0, 0, 0, 0), k.g)
		binary.LittleEndian.PutUint32(part[at+4:], uint32(len(part)-at-exchangeHeader))
	}
	return part
}

// decodeExchangeFrame decodes one exchange frame from the front of part
// with dec and returns the remainder. A decoder error and a short decode
// (the geometry ending before the bytes the frame announced, with no error)
// are distinct failures: wrapping a nil error would print a garbage
// "%!w(<nil>)" message, so the short decode is reported explicitly.
// Callers add the rank/phase/source context; the messages here describe only
// the frame itself.
func decodeExchangeFrame(dec *wkb.Parser, part []byte) (cell int, g geom.Geometry, rest []byte, err error) {
	if len(part) < exchangeHeader {
		return 0, nil, nil, fmt.Errorf("truncated exchange frame header")
	}
	cell = int(binary.LittleEndian.Uint32(part[0:]))
	plen := int64(binary.LittleEndian.Uint32(part[4:]))
	if int64(len(part)) < int64(exchangeHeader)+plen {
		return 0, nil, nil, fmt.Errorf("truncated exchange frame payload")
	}
	g, used, derr := dec.Decode(part[exchangeHeader : int64(exchangeHeader)+plen])
	if derr != nil {
		return 0, nil, nil, fmt.Errorf("exchange payload decode: %w", derr)
	}
	if int64(used) != plen {
		return 0, nil, nil, fmt.Errorf("exchange payload decode: geometry ends after %d of %d framed bytes", used, plen)
	}
	return cell, g, part[int64(exchangeHeader)+plen:], nil
}

// quarantineFrame skips past one undecodable frame: if the announced length
// field is plausible, exactly that frame is dropped and decoding resumes at
// the next one; otherwise the header itself is suspect and the rest of the
// partition is surrendered (frames are not self-synchronizing). Returns the
// bytes given up and the remainder, which is nil exactly when the rest was
// surrendered. All arithmetic is 64-bit — a corrupted length field must not
// overflow int on 32-bit builds.
func quarantineFrame(part []byte) (skipped int, rest []byte) {
	if len(part) >= exchangeHeader {
		plen := int64(binary.LittleEndian.Uint32(part[4:]))
		if end := int64(exchangeHeader) + plen; end <= int64(len(part)) {
			return int(end), part[end:]
		}
	}
	return len(part), nil
}

// Partitioner carries out the global spatial partitioning of §4.2.3: local
// geometries are projected to grid cells (replicated into every overlapping
// cell), serialized per destination rank, and exchanged with the two-round
// protocol — an MPI_Allgather of each rank's count row for the
// count/displacement metadata (see FinishStream), then MPI_Alltoallv for
// the coordinate payload — optionally in sliding-window phases to bound
// memory.
type Partitioner struct {
	// Grid is the cellular decomposition: the uniform grid.Grid of §4.2 or
	// the skew-aware grid.Adaptive built by SamplePartition.
	// Cells go to ranks by the partition's own placement when it carries
	// one (grid.Mapper) and round-robin (§4.2.3) otherwise.
	Grid grid.Partition
	// WindowCells bounds how many consecutive cells are exchanged per
	// phase (the sliding-window technique for large data). Zero exchanges
	// everything in one phase. The window bounds each phase's message size
	// and decode memory; send-side frames are staged at Add for all phases —
	// remote frames in chunks per (phase, destination) that are filled in
	// place and never regrown, handed to the payload round as chunk lists
	// (no gather), decoded by the receiver straight off those chunks (no
	// receive buffer) and released as FinishStream ships them. The rank's
	// own frames are kept decoded from Add on, with no staged bytes.
	WindowCells int
	// DirectGrid replaces the paper's cell-lookup mechanism — an R-tree
	// built over the cell boundaries, queried with each geometry's MBR —
	// with the partition's own lookup (uniform-grid arithmetic, or the
	// adaptive partition's quadtree descent). The assignments are
	// identical; the direct path is cheaper (see the ablation-cellindex
	// experiment).
	DirectGrid bool
	// SkipBadFrames quarantines received exchange frames that fail to
	// decode (or claim cells this rank does not own) instead of failing the
	// exchange: the offending frame is skipped, counted in
	// ExchangeStats.FramesQuarantined/BytesQuarantined, and the phase
	// continues. Off by default — a corrupted frame is an error.
	SkipBadFrames bool
	// FrameFault, when non-nil, inspects (and may mutate in place) every
	// received exchange partition before it is decoded: an injection point
	// for corruption testing (see internal/fault). With a hook installed,
	// each received block is joined into one buffer during the payload
	// round instead of being decoded there, and the rank's own partition,
	// otherwise kept decoded and never staged, is re-encoded into one buffer
	// (byte for byte what staging would have held); the hook then runs after
	// the round, source by source in rank order, so it sees the same
	// contiguous bytes for every (phase, src), each decoded like any
	// received part once its hook ran. The disabled path costs one nil check
	// per partition.
	FrameFault func(phase, src int, part []byte)
}

// ExchangeStats reports one rank's partitioning work.
type ExchangeStats struct {
	// Ledger is the virtual seconds FinishStream booked per kind, its
	// sink's charges included: the rank's ledger delta over the call.
	Ledger simtime.Ledger
	// Phases is the number of sliding-window rounds executed.
	Phases int
	// Replicas counts (geometry, cell) pairs staged by this rank,
	// including the replication of multi-cell geometries.
	Replicas int
	// GeomsRecv counts geometries landing in cells owned by this rank.
	GeomsRecv int
	// BytesSent counts serialized payload bytes shipped by this rank.
	BytesSent int64
	// BytesRecv counts serialized payload bytes landing on this rank — the
	// per-rank exchange load the skew-aware partition balances.
	BytesRecv int64
	// GeomImbalance and ByteImbalance are the load-balance factors of the
	// whole exchange — max over ranks divided by mean over ranks, of the
	// geometries and payload bytes each rank receives — computed from the
	// allgathered per-phase count matrix, so every rank reports the same
	// number without a trailing collective. 1.0 is a perfect balance; a
	// uniform grid on skewed data runs far above it. Zero when nothing was
	// exchanged.
	GeomImbalance float64
	ByteImbalance float64
	// FramesQuarantined counts received frames dropped under SkipBadFrames
	// (zero when the policy is off — bad frames fail the exchange instead).
	FramesQuarantined int
	// BytesQuarantined counts the received bytes those frames surrendered.
	BytesQuarantined int64
}

// ProjectTime is the Project kind: projecting local geometries onto grid
// cells (the "partition" phase of Figures 17-20).
func (s ExchangeStats) ProjectTime() float64 { return s.Ledger[simtime.Project] }

// CommTime is Encode + Decode + Transport + Wait: serialization, the two
// exchange rounds, and deserialization (the "communication" phase).
func (s ExchangeStats) CommTime() float64 {
	return s.Ledger[simtime.Encode] + s.Ledger[simtime.Decode] + s.Ledger[simtime.Transport] + s.Ledger[simtime.Wait]
}

// Exchange projects local geometries to grid cells and performs the global
// exchange. It returns this rank's cells: cell id -> geometries overlapping
// that cell (from every rank). All ranks must call it collectively.
//
// Exchange is the materialized composition over the one exchange path: one
// Stream, one Add with the whole batch, one Finish — so it and any chunked
// Stream/Add/Finish over the same geometries produce the same cells, stats,
// and virtual-clock trajectory, and its frames are staged on top of the
// caller's slice (see WindowCells). A geometry wholly outside the grid
// envelope (only possible with a caller-built grid smaller than the data)
// clamps to the border cells.
func (pt *Partitioner) Exchange(c *mpi.Comm, local []geom.Geometry) (map[int][]geom.Geometry, ExchangeStats, error) {
	ex, err := pt.Stream(c)
	if err != nil {
		return nil, ExchangeStats{}, err
	}
	_ = ex.Add(local) // a failed Add is sticky: Finish returns it, after running its collectives
	return ex.Finish()
}

// Exchanger is the one exchange engine behind the Partitioner: it accepts
// geometry batches (a ReadStream sink can feed Add directly, mid-read),
// projecting and serializing each batch as it arrives, and runs the
// sliding-window exchange protocol when Finish is called. Cell assignment
// and frame encoding thereby overlap the parallel read instead of following
// it, and the input geometries are never retained — once Add returns, a
// batch's only footprint is its frames: compact serialized bytes for other
// ranks' cells, decoded copies for this rank's own.
//
// Frames have one format — [cell u32][len u32][WKB] — and one staging
// path, addRaw, which takes a WKB payload and books one frame per replica.
// Add encodes each geometry into a recycled scratch and stages that;
// Read over length-prefixed WKB read by WKBParser stages the file's
// own record bytes (the raw path: scanned, not decoded, by the sender).
// The encoding is canonical, so the two produce byte-identical frames, and
// cells, their order, every ExchangeStats field and the virtual clock do
// not depend on which path ran. A frame bound for another rank is copied
// into its staging chunk, travels in its stage's chunk list
// (mpi.Comm.AlltoallvChunks, no gather) and is decoded by the receiver
// straight off that chunk while the sender is held: the decode is the
// receive's one copy, and there is no receive buffer. A frame the rank
// owns itself never enters the transport, so it is never staged: its
// payload — Add's encoding, never the caller's geometry — is decoded at
// Add time, once however many own cells it replicates into, and the
// geometry kept until its phase. Both decodes run on the Exchanger's one
// decoder. Every source's frames are booked into the phase's cells after
// the round, in rank order, each cell's slice allocated once. The virtual
// clock still charges every own frame's serialization and deserialization
// at FinishStream's program points, as if it had been staged and decoded
// there.
//
// Add may be called any number of times (including zero) with any batch
// sizes; ranks need not agree on the call count. Stream, Finish, and
// FinishStream are collective. A failed Add (a geometry whose frame
// overflows the u32 header, or an own frame that fails to decode) is
// sticky: later Adds return the same error, and Finish treats it as a sink
// that had already failed — every phase's collectives still run, so no
// peer is stranded, and the error is returned after the last one.
// Virtual-time accounting follows the parse-pool precedent: Add never
// touches the communicator — projection and serialization costs accumulate
// off-clock and are charged inside Finish at fixed rank-goroutine program
// points (the projection total before the first phase, each phase's
// serialization inside that phase) — so the clock trajectory is
// independent of how the input was batched.
type Exchanger struct {
	c         *mpi.Comm
	rank      int
	mapping   func(cell, size int) int
	grid      grid.Partition
	cellIndex *grid.CellIndex
	scale     float64
	size      int
	numCells  int
	window    int
	phases    int

	// send stages exchange frames as send[phase][dst] — serialized for a
	// remote dst, kept decoded for this rank. A placement's phase is
	// cell/window — deterministic at Add time — so frames land directly in
	// their phase's stage in arrival order. Rows are allocated on first use
	// (a fine-grained sliding window has many phases, most of them possibly
	// empty on a given rank) and released as Finish ships them. Staging
	// frames across all phases is what lets the batch's geometries go the
	// moment Add returns; the window bounds what each phase sends, receives,
	// and decodes, not what is staged or kept.
	send [][]frameStage
	// sendGeoms counts staged frames as sendGeoms[phase][dst] — the geometry
	// half of the count matrix each phase's Allgather publishes for
	// load-balance observability. Rows allocate with their send rows.
	sendGeoms [][]int64
	// serCost accumulates each phase's deferred per-geometry serialization
	// charge (the per-byte part is derived from buffer sizes at Finish).
	serCost []float64
	// projCost accumulates the deferred projection charge of every Add —
	// virtual seconds, already scale-multiplied — charged to the clock at
	// the top of Finish. Keeping Add off the clock pins every batching of
	// the same input to the same program points.
	projCost float64

	// skipBad and frameFault mirror Partitioner.SkipBadFrames and
	// Partitioner.FrameFault for the receive path.
	skipBad    bool
	frameFault func(phase, src int, part []byte)

	// enc is Add's scratch: each geometry is encoded here, then staged
	// through addRaw.
	enc []byte
	// cells is project's scratch: the cells of the record being staged.
	cells []int
	// dec is the exchange's one decoder: own frames at Add time, received
	// frames in FinishStream's payload rounds. A zero Parser allocates its
	// first slab lazily.
	dec wkb.Parser

	stats  ExchangeStats
	addErr error // first Add failure (sticky)
	done   bool
}

// Stream validates the grid and opens an exchange. All ranks must call it
// collectively with identical Partitioner configuration (they see the same
// grid, so the validation fails all ranks identically — deferring to the
// per-frame guard would abort one rank mid-collective and strand its peers
// in the count exchange). It validates only the shared Partitioner
// configuration, never rank-local state.
func (pt *Partitioner) Stream(c *mpi.Comm) (*Exchanger, error) {
	numCells := pt.Grid.NumCells()
	// Cell ids travel in a u32 frame header.
	if int64(numCells-1) > math.MaxUint32 {
		return nil, fmt.Errorf("core: grid has %d cells; exchange frame headers address at most 2^32", numCells)
	}
	ex := &Exchanger{
		c:          c,
		rank:       c.Rank(),
		mapping:    grid.MappingOf(pt.Grid),
		grid:       pt.Grid,
		scale:      c.Config().Scale(),
		size:       c.Size(),
		numCells:   numCells,
		skipBad:    pt.SkipBadFrames,
		frameFault: pt.FrameFault,
	}
	if !pt.DirectGrid {
		ex.cellIndex = grid.NewCellIndex(pt.Grid)
	}
	ex.window = pt.WindowCells
	if ex.window <= 0 {
		ex.window = numCells
	}
	ex.phases = (numCells + ex.window - 1) / ex.window
	ex.stats.Phases = ex.phases
	ex.send = make([][]frameStage, ex.phases)
	ex.sendGeoms = make([][]int64, ex.phases)
	ex.serCost = make([]float64, ex.phases)
	return ex, nil
}

// Add projects one geometry batch onto grid cells and serializes each
// (geometry, cell) pair into its window phase's send buffer. It performs no
// communication and never touches the clock (costs accumulate off-clock,
// charged inside Finish), and the batch is not retained: geometries with
// empty envelopes are dropped, the rest live on as serialized frames.
// Thanks to envelope-at-parse, freshly parsed batches project without
// rescanning a single coordinate. Each geometry is encoded once, into a
// recycled scratch, and staged through addRaw like a file record. Calls must
// be serialized (one goroutine at a time — in practice the rank goroutine,
// from a ReadStream sink). Read bypasses Add when its input allows the raw
// path; that is a property of the parser and framing the caller passes,
// not an option.
func (ex *Exchanger) Add(batch []geom.Geometry) error {
	if err := ex.open(); err != nil {
		return err
	}
	for _, g := range batch {
		ex.enc = wkb.Append(ex.enc[:0], g)
		if err := ex.addRaw(ex.enc, g.GeomType(), g.Envelope()); err != nil {
			return err
		}
	}
	return nil
}

// addRaw stages one WKB payload: rec is Add's encoding of a geometry or,
// on the raw path, the file's own record bytes, already checked whole by
// scanWKB; t and env are what its decode would report. By FuzzDecode's
// re-encode invariant a raw record is byte-for-byte wkb.Append of its
// decode, so both paths stage the same frames. Empty envelopes are dropped.
// Every other payload is copied once per remote replica, and decoded once
// if any replica is this rank's own, with env primed rather than folded
// again, the geometry kept for each own cell.
// The caller's buffer is not retained. A header field that overflows, or an
// own payload that fails to decode, fails the Exchanger (sticky) before
// that frame is booked.
func (ex *Exchanger) addRaw(rec []byte, t geom.Type, env geom.Envelope) error {
	if err := ex.open(); err != nil {
		return err
	}
	if env.IsEmpty() {
		return nil
	}
	var own geom.Geometry // rec's decode, made at its first own replica
	for _, cell := range ex.project(env) {
		if err := checkFrame(cell, len(rec)); err != nil {
			ex.addErr = err
			return err
		}
		dst := ex.mapping(cell, ex.size)
		if dst != ex.rank {
			copy(ex.book(cell, dst, t).frame(cell, len(rec)), rec)
			continue
		}
		if own == nil {
			g, err := ex.decodeOwn(rec, env)
			if err != nil {
				ex.addErr = err
				return err
			}
			own = g
		}
		ex.book(cell, dst, t).keep(cell, len(rec), own)
	}
	return nil
}

// decodeOwn decodes one own payload with the exchange's decoder; the whole
// of rec must be one geometry, as decodeExchangeFrame demands of a frame.
// env is the envelope addRaw was handed — Scan's on the raw path, the
// geometry's own on Add — so the decode primes it instead of folding the
// record a second time.
func (ex *Exchanger) decodeOwn(rec []byte, env geom.Envelope) (geom.Geometry, error) {
	g, used, err := ex.dec.DecodePrimed(rec, env)
	if err != nil {
		return nil, fmt.Errorf("core: own exchange payload decode: %w", err)
	}
	if used != len(rec) {
		return nil, fmt.Errorf("core: own exchange payload decode: geometry ends after %d of %d bytes", used, len(rec))
	}
	return g, nil
}

// open reports whether the Exchanger still accepts input.
func (ex *Exchanger) open() error {
	if ex.done {
		return fmt.Errorf("core: Exchanger.Add after Finish")
	}
	return ex.addErr
}

// project returns the cells an envelope overlaps, booking the lookup's
// charge off-clock and the replicas in the stats. The result is the
// Exchanger's cells scratch, valid until the next project.
func (ex *Exchanger) project(env geom.Envelope) []int {
	var cells []int
	if ex.cellIndex != nil {
		// The paper's mechanism: query the R-tree of cell boundaries with
		// the geometry's MBR.
		cells = ex.cellIndex.AppendCellsFor(ex.cells[:0], env)
		ex.projCost += costmodel.IndexQuery(ex.numCells, len(cells)) * ex.scale
	} else {
		cells = ex.grid.AppendCellsFor(ex.cells[:0], env)
		ex.projCost += costmodel.GridProjectPerCell * float64(len(cells)) * ex.scale
	}
	if len(cells) == 0 {
		// The R-tree of cell boundaries matches nothing for a geometry
		// lying wholly outside the grid envelope (reachable only with a
		// caller-supplied envelope smaller than the data; a grid derived
		// from the data always covers it). Dropping it would silently lose
		// data, so fall back to the arithmetic lookup, which clamps outside
		// geometries to the border cells.
		cells = ex.grid.AppendCellsFor(cells, env)
		ex.projCost += costmodel.GridProjectPerCell * float64(len(cells)) * ex.scale
	}
	ex.cells = cells
	ex.stats.Replicas += len(cells)
	return cells
}

// book counts one (geometry, cell) frame of type t bound for dst, books
// its serialization charge, and returns the cell's phase stage for dst.
func (ex *Exchanger) book(cell, dst int, t geom.Type) *frameStage {
	ph := cell / ex.window
	if ex.send[ph] == nil {
		ex.send[ph] = make([]frameStage, ex.size)
		ex.sendGeoms[ph] = make([]int64, ex.size)
	}
	ex.sendGeoms[ph][dst]++
	ex.serCost[ph] += costmodel.SerializeGeomCost(t)
	return &ex.send[ph][dst]
}

// Finish runs the two-round exchange protocol over the staged frames, one
// sliding-window phase at a time, and returns this rank's cells: cell id
// -> geometries overlapping that cell (from every rank), in deterministic
// order (phase, then source rank, then the source's addition order). All
// ranks must call it collectively, once.
func (ex *Exchanger) Finish() (map[int][]geom.Geometry, ExchangeStats, error) {
	result := make(map[int][]geom.Geometry)
	stats, err := ex.FinishStream(func(cells map[int][]geom.Geometry) error {
		for cell, gs := range cells {
			result[cell] = gs
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return result, stats, nil
}

// FinishStream is Finish with per-phase delivery: after each sliding-window
// phase's payload round — remote stages sent as their chunk lists, with no
// gather, and the own stage's geometries, decoded since Add, joining at
// this rank's source position — the sink receives that phase's completed
// cells — cell id -> geometries (from every rank), in the same
// deterministic order Finish returns. A cell's contents never grow after
// its phase (a placement's phase is cell/window), so the sink may consume
// and drop each delivery immediately; the map is freshly built per phase
// and is the sink's to keep. The sink runs on the rank goroutine between
// phases, its charges in the stats' Ledger (a tree build's Index is not
// CommTime); any collective it issues must be collective across ranks. A
// sink error stops further deliveries but not the exchange: every remaining
// phase still runs its two rounds on all ranks (so no rank is stranded
// mid-collective), and the first sink error is returned after the last
// phase — compositions whose sinks can fail on a subset of ranks must
// settle agreement themselves, as the spatial workloads' infallible sinks
// never need to. All ranks must call it collectively, once.
func (ex *Exchanger) FinishStream(sink func(cells map[int][]geom.Geometry) error) (stats ExchangeStats, err error) {
	if ex.done {
		return ex.stats, fmt.Errorf("core: Exchanger.Finish called twice")
	}
	if sink == nil {
		return ex.stats, fmt.Errorf("core: FinishStream requires a sink")
	}
	ex.done = true
	c := ex.c
	rank := ex.rank
	before := c.Ledger()
	defer func() { stats.Ledger = c.Ledger().Sub(before) }()

	// The deferred projection charge lands here — before the first phase's
	// collectives — whether the Adds ran mid-read or just above, so every
	// batching of the same input replays one clock trajectory.
	c.Charge(simtime.Project, ex.projCost)
	ex.projCost = 0
	sinkErr := ex.addErr

	countRow := make([]byte, ex.size*16)
	sendSizes := make([]int, ex.size)
	recvSizes := make([]int, ex.size)
	// Per-rank incoming loads, accumulated from the allgathered count
	// matrix — every rank sums the same rows, so the totals (and the
	// balance factors derived from them after the last phase) are
	// rank-identical without any trailing collective.
	loadBytes := make([]int64, ex.size)
	loadGeoms := make([]int64, ex.size)
	// send is each phase's payload-round input: each destination's stage as
	// its chunk list; in is its output, each source's frames, decoded as
	// the round hands over each block (see receive).
	send := make([][][]byte, ex.size)
	in := make([]recvPart, ex.size)
	receive := func(src int, block [][]byte) { ex.receive(&in[src], block) }

	for ph := 0; ph < ex.phases; ph++ {
		// Serialization is charged at this fixed program point; Add already
		// did the work off-clock. The own stage's size counts its kept
		// frames, so the charge and BytesSent are what staging them would
		// have cost.
		var sentBytes int64
		var own frameStage
		for dst := range send {
			send[dst], sendSizes[dst] = nil, 0
			if ex.send[ph] != nil {
				send[dst], sendSizes[dst] = ex.send[ph][dst].chunks, ex.send[ph][dst].size
			}
			sentBytes += int64(sendSizes[dst])
		}
		if ex.send[ph] != nil {
			own = ex.send[ph][rank]
		}
		c.Charge(simtime.Encode, (costmodel.SerializePerByte*float64(sentBytes)+ex.serCost[ph])*ex.scale)
		ex.stats.BytesSent += sentBytes

		// Round 1: publish buffer sizes (MPI_Allgather of each rank's count
		// row), so every rank can build the receive-side count and
		// displacement arrays. Pairwise counts (MPI_Alltoall) would suffice
		// for sizing the payload round; gathering the full matrix instead
		// lets every rank accumulate every rank's incoming load, so the
		// exchange-wide balance factors settle locally after the last phase
		// — with no trailing collective a strict-mode decode failure on one
		// rank could strand the others in.
		geomsTo := ex.sendGeoms[ph] // nil when this rank staged nothing
		for dst, n := range sendSizes {
			binary.LittleEndian.PutUint64(countRow[dst*16:], uint64(n))
			var ng int64
			if geomsTo != nil {
				ng = geomsTo[dst]
			}
			binary.LittleEndian.PutUint64(countRow[dst*16+8:], uint64(ng))
		}
		// A rank whose frames fail to decode in strict mode returns before
		// the next phase's rounds: it has nothing further to exchange, and
		// the documented contract is world-abort teardown, releasing the
		// peers with ErrAborted (TestChaosFrameCorruption pins it).
		countRows, err := c.Allgather(countRow)
		if err != nil {
			return ex.stats, fmt.Errorf("core: count exchange: %w", err)
		}
		for src := 0; src < ex.size; src++ {
			recvSizes[src] = int(binary.LittleEndian.Uint64(countRows[src][rank*16:]))
			for dst := 0; dst < ex.size; dst++ {
				loadBytes[dst] += int64(binary.LittleEndian.Uint64(countRows[src][dst*16:]))
				loadGeoms[dst] += int64(binary.LittleEndian.Uint64(countRows[src][dst*16+8:]))
			}
			// Each source's frame list is sized once, from the geometry
			// count its row publishes — bounded by its bytes, since a
			// corrupted row may claim anything. The own frames, kept since
			// Add, need no list unless a FrameFault hook decodes them anew.
			in[src] = recvPart{}
			ng := int(binary.LittleEndian.Uint64(countRows[src][rank*16+8:]))
			if ng = min(ng, recvSizes[src]/exchangeHeader); ng > 0 && (src != rank || ex.frameFault != nil) {
				in[src].frames = make([]keptFrame, 0, ng)
			}
		}

		// Round 2: exchange the coordinate payload (MPI_Alltoallv, with an
		// hindexed type per peer on both sides). The own stage stays out of
		// the transport — an empty own block (it holds no chunks), which the
		// count row above still publishes at its kept frames' size. Each
		// remote block is decoded as the round hands it over, straight off
		// the sender's chunks: the decode is the receive's one copy. The
		// same strict-mode world-abort contract as the count exchange.
		recvSizes[rank] = 0
		if err := c.AlltoallvChunks(send, recvSizes, receive); err != nil {
			return ex.stats, fmt.Errorf("core: payload exchange: %w", err)
		}

		// This phase's staged frames are dead the moment the payload round
		// returns; release them so a long sliding-window run frees send
		// buffers as it goes.
		clear(send)
		ex.send[ph] = nil
		ex.sendGeoms[ph] = nil

		// The own frames join at this rank's source position, already
		// decoded — unless a FrameFault hook must see them as bytes: then
		// the hook sees every source's part in rank order, each decoded
		// after its hook ran, up to the first strict failure.
		if ex.frameFault == nil {
			in[rank].frames, in[rank].size = own.kept, own.size
		} else {
			for src := range in {
				r := &in[src]
				if src == rank {
					r.part = own.encode()
				}
				ex.frameFault(ph, src, r.part)
				r.size = len(r.part)
				ex.decodeFrames(r, r.part, false)
				if r.err != nil {
					break
				}
			}
		}
		phaseCells, err := ex.deliver(ph, in)
		if err != nil {
			return ex.stats, err
		}

		// Hand the completed phase over: the sink's work (tree builds,
		// writes) is the consumer's phase, not the exchange's.
		if sinkErr == nil {
			if err := sink(phaseCells); err != nil {
				sinkErr = err
			}
		}
	}
	// Settle the exchange-wide load-balance factors from the accumulated
	// count matrix. Every rank summed the same allgathered rows, so the
	// factors come out identical everywhere with pure local arithmetic —
	// deliberately not a reduction, because nothing collective may follow
	// the last payload round (a strict-mode decode failure returns early on
	// just the failing rank, and its peers must still complete cleanly).
	var sumB, maxB, sumG, maxG int64
	for i := 0; i < ex.size; i++ {
		sumB += loadBytes[i]
		maxB = max(maxB, loadBytes[i])
		sumG += loadGeoms[i]
		maxG = max(maxG, loadGeoms[i])
	}
	ex.stats.GeomImbalance = imbalance(float64(maxG), float64(sumG), ex.size)
	ex.stats.ByteImbalance = imbalance(float64(maxB), float64(sumB), ex.size)
	return ex.stats, sinkErr
}

// recvPart is one source's share of a phase, ready to book: its frames in
// arrival order, the bytes its block held, the frames quarantined out of
// it, and its strict failure. part is the joined copy a FrameFault hook
// inspects.
type recvPart struct {
	frames           []keptFrame
	size             int
	quarantined      int
	quarantinedBytes int64
	err              error
	part             []byte
}

// receive is the payload round's consumer for one source's block, a chunk
// list that is the sender's own stage (or an eager copy of it). It decodes
// the block into r, keeping nothing that aliases it, and charges nothing:
// deliver books it after the round. Under a FrameFault hook it only joins
// the block, for the hook to see contiguous after the round.
func (ex *Exchanger) receive(r *recvPart, block [][]byte) {
	if ex.frameFault != nil {
		r.part = bytes.Join(block, nil)
		return
	}
	for _, chunk := range block {
		r.size += len(chunk)
	}
	for i, chunk := range block {
		if rest := ex.decodeFrames(r, chunk, i+1 < len(block)); rest != nil {
			// A frame never straddles two chunks (frameStage.frame), so
			// only a bad one fails here; it is settled on the rest of the
			// block joined, exactly as in one contiguous part.
			ex.decodeFrames(r, bytes.Join(append([][]byte{rest}, block[i+1:]...), nil), false)
			return
		}
	}
}

// decodeFrames decodes part's frames into r. A frame that fails to decode,
// or claims a cell outside the grid or owned by another rank, is r's
// error, or under SkipBadFrames is quarantined. When more bytes of the
// block follow part (more), a failing frame is not settled here: part from
// that frame on is returned instead. Otherwise the result is nil.
func (ex *Exchanger) decodeFrames(r *recvPart, part []byte, more bool) []byte {
	for len(part) > 0 {
		cell, g, rest, err := decodeExchangeFrame(&ex.dec, part)
		if err == nil {
			if cell >= ex.numCells {
				err = fmt.Errorf("received cell %d outside the grid of %d cells", cell, ex.numCells)
			} else if own := ex.mapping(cell, ex.size); own != ex.rank {
				err = fmt.Errorf("received cell %d owned by rank %d", cell, own)
			}
		}
		if err != nil {
			switch {
			case more:
				return part
			case !ex.skipBad:
				r.err = err
				return nil
			}
			skipped, tail := quarantineFrame(part)
			r.quarantined++
			r.quarantinedBytes += int64(skipped)
			part = tail
			continue
		}
		r.frames = append(r.frames, keptFrame{cell: cell, g: g})
		part = rest
	}
	return nil
}

// deliver books one phase's frames into its cells, source by source in
// rank order, the own stage at this rank's position: each source's bytes
// and per-byte deserialization charge, its geometries, its quarantines,
// then its per-geometry charge — as if each source's part were decoded
// here, so the own frames, decoded at Add time, book exactly like received
// ones. Each cell's slice is allocated once, at its count across sources.
// A source's strict failure is returned once its frames before the failure
// are counted, without its per-geometry charge.
func (ex *Exchanger) deliver(ph int, in []recvPart) (map[int][]geom.Geometry, error) {
	count := make(map[int]int)
	for _, r := range in {
		for _, f := range r.frames {
			count[f.cell]++
		}
	}
	cells := make(map[int][]geom.Geometry, len(count))
	for src := range in {
		r := &in[src]
		ex.stats.BytesRecv += int64(r.size)
		ex.c.Charge(simtime.Decode, costmodel.DeserializePerByte*float64(r.size)*ex.scale)
		var cost float64
		for _, f := range r.frames {
			gs, ok := cells[f.cell]
			if !ok {
				gs = make([]geom.Geometry, 0, count[f.cell])
			}
			cells[f.cell] = append(gs, f.g)
			ex.stats.GeomsRecv++
			cost += costmodel.DeserializeGeomCost(f.g.GeomType())
		}
		ex.stats.FramesQuarantined += r.quarantined
		ex.stats.BytesQuarantined += r.quarantinedBytes
		if r.err != nil {
			return nil, fmt.Errorf("core: rank %d exchange phase %d from rank %d: %w", ex.rank, ph, src, r.err)
		}
		ex.c.Charge(simtime.Decode, cost*ex.scale)
	}
	return cells, nil
}

// imbalance is the load-balance factor: the heaviest rank's load over the
// mean load across the world. Zero when nothing was exchanged.
func imbalance(max, sum float64, size int) float64 {
	if sum <= 0 {
		return 0
	}
	return max / (sum / float64(size))
}

func f64field(buf []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
}

// ReadExchange is the one-pass streaming pipeline: a parallel file read
// feeding the spatial exchange batch by batch (Partitioner.Stream, then
// Exchanger.Read, then Finish), so cell assignment and frame encoding
// overlap I/O, boundary repair, and parsing, and the full local geometry
// slice never exists. It requires the Partitioner's grid up front (a
// caller-supplied global envelope); when the envelope is unknown, read
// first and use the two-pass Allreduce path instead (see
// spatial.JoinFiles). On a read error the exchange never runs and its
// stats are zero. All ranks must call it collectively.
func ReadExchange(c *mpi.Comm, f *mpiio.File, p Parser, opt ReadOptions, pt *Partitioner) (map[int][]geom.Geometry, ReadStats, ExchangeStats, error) {
	ex, err := pt.Stream(c)
	if err != nil {
		return nil, ReadStats{}, ExchangeStats{}, err
	}
	rstats, err := ex.Read(f, p, opt)
	if err != nil {
		// The read settled its error collectively: every rank abandons the
		// exchange here, so nobody is stranded in Finish's collectives.
		return nil, rstats, ExchangeStats{}, err
	}
	cells, estats, err := ex.Finish()
	return cells, rstats, estats, err
}

// Read is the one file-to-Exchanger feeder: a collective read of f (see
// ReadStream) whose every record is staged as Add would stage it. When p
// is a WKBParser and opt.Framing is LengthPrefixed, the read takes the
// raw path: each record is scanned (wkb.Scan — type, envelope, length,
// with Parse's checks and error text) instead of decoded, and its file
// bytes are staged as the frame payload while the read block still holds
// them, so the sender never encodes a geometry and builds one only for a
// record with a cell of its own, which it decodes once, as its own
// receiver. This is a property of the input, not an option: ReadStats,
// cells, within-cell order, every ExchangeStats field and the virtual
// clock are bitwise those of feeding ReadStream's batches to Add (a Parser
// wrapping WKBParser does exactly that). The read settles its error
// collectively, so on an error every rank abandons the Exchanger together
// and none is stranded in Finish's collectives. All ranks must call it
// collectively, before Finish.
func (ex *Exchanger) Read(f *mpiio.File, p Parser, opt ReadOptions) (ReadStats, error) {
	if rawPath(p, opt.Framing) {
		_, stats, err := readCore(ex.c, f, p, opt, output{raw: ex})
		return stats, err
	}
	return ReadStream(ex.c, f, p, opt, ex.Add)
}

// rawPath reports whether Exchanger.Read can forward the file's record bytes:
// the stock WKB parser over length-prefixed framing, whose payloads are
// exactly the frames' WKB.
func rawPath(p Parser, fr Framing) bool {
	_, stock := p.(WKBParser)
	return stock && fr == LengthPrefixed()
}

// LocalEnvelope unions the MBRs of a geometry batch — each rank's input to
// the MPI_UNION reduction that fixes the global grid.
func LocalEnvelope(geoms []geom.Geometry) geom.Envelope {
	e := geom.EmptyEnvelope()
	for _, g := range geoms {
		e = e.Union(g.Envelope())
	}
	return e
}
