package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"repro/internal/arena"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/simtime"
)

// tagFragment is the point-to-point tag of Algorithm 1's ring exchange.
const tagFragment = 77

// Fragment-framing flags: a final fragment closes the sender's chain for
// this iteration; a non-final one announces that more fragments follow
// (a record spanning more than one block is relayed piecewise).
const (
	fragFinal byte = 1
	fragMore  byte = 0
)

// ErrGeometryTooLarge is returned by the overlap strategy when a text
// record exceeds the halo length (MaxGeomSize). Binary records never
// return it: they ignore the strategy and the halo.
var ErrGeometryTooLarge = errors.New("core: record exceeds MaxGeomSize halo; increase MaxGeomSize")

// ErrRemoteParse reports that another rank hit a parse error during a
// collective ReadPartition; the failing rank returns the underlying error.
var ErrRemoteParse = errors.New("core: parse failure on another rank")

// ErrRemoteSink reports that another rank's ReadStream sink returned an
// error; the failing rank returns the sink's error.
var ErrRemoteSink = errors.New("core: sink failure on another rank")

// ioErr is the one wrapping format every reader I/O, exchange, and decode
// error carries: rank, file, byte offset, then the failing step and cause.
func ioErr(rank int, file string, off int64, what string, err error) error {
	return fmt.Errorf("core: rank %d file %q offset %d: %s: %w", rank, file, off, what, err)
}

// ReadOptions configures ReadPartition.
type ReadOptions struct {
	// BlockSize is the bytes each process reads per iteration (real bytes;
	// the granularity knob of §4.1). Zero divides the file equally in a
	// single iteration.
	BlockSize int64
	// Level selects independent (Level0) or collective (Level1) MPI-IO
	// read functions.
	Level AccessLevel
	// Strategy selects message-based (Algorithm 1) or overlap (halo)
	// boundary handling for text (Delimited) framings. Binary
	// (LengthPrefixed) framings ignore it: their records are not
	// self-synchronizing, and every binary read repairs boundaries with the
	// message-based chain.
	Strategy Strategy
	// MaxGeomSize is the halo length for the Overlap strategy on text — the
	// upper bound on one record's size (the paper uses 11 MB, its largest
	// polygon). Zero defaults to BlockSize. Binary framings ignore it: no
	// halo is read, and a record may be any length.
	MaxGeomSize int64
	// Framing selects how the file divides into records. Nil defaults to
	// Delimited('\n') — newline-separated text. LengthPrefixed() selects
	// u32-length-prefixed binary records (WKB payloads parsed by WKBParser).
	Framing Framing
	// SkipErrors counts malformed records instead of failing.
	SkipErrors bool
	// StreamBatch bounds how many geometries accumulate before ReadStream
	// hands a batch to its sink. Zero defaults to 256. ReadPartition
	// ignores it.
	StreamBatch int
}

// framing returns the configured Framing, or the default newline-delimited
// text framing when none is set.
func (o ReadOptions) framing() Framing {
	if o.Framing == nil {
		return Delimited('\n')
	}
	return o.Framing
}

// ReadStats reports what one rank did during one read: ReadPartition,
// ReadStream, or Exchanger.Read.
type ReadStats struct {
	Records    int
	Errors     int
	BytesRead  int64 // real bytes read from the filesystem, redundancy included
	Iterations int
	// Ledger is the rank's ledger delta over the call; its Sum is the
	// read's elapsed virtual time. IO and Aggregate read blocks, Transport
	// and Wait repair boundaries and agree on errors, Parse parses, and a
	// ReadStream sink adds its own. A Level1 non-aggregator books its whole
	// collective read as Wait, so I/O and comm do not split by kind.
	Ledger simtime.Ledger
}

// ReadPartition reads and partitions a vector file across all ranks of c:
// every rank returns the geometries whose records end inside its file
// partitions (a record spanning a partition boundary belongs to the rank
// holding its final byte). This is the paper's Algorithm 1 (message-based,
// default) or its overlap alternative, under independent or collective
// MPI-IO. All ranks must call it collectively.
//
// The message-based strategy generalizes the paper's algorithm: when a
// record is longer than a whole block, the incomplete fragment is relayed
// through intermediate ranks until it meets its terminating delimiter, so
// no a-priori bound on geometry size is required.
//
// The record framing is pluggable (ReadOptions.Framing): delimited text and
// length-prefixed binary WKB records are supported under both access
// levels. The strategy applies to text only. Because length-prefixed
// records are not self-synchronizing, their boundary repair threads phase
// information through the ranks in a per-iteration chain
// (readMessageChain), whatever the Strategy.
func ReadPartition(c *mpi.Comm, f *mpiio.File, p Parser, opt ReadOptions) ([]geom.Geometry, ReadStats, error) {
	return readCore(c, f, p, opt, output{})
}

// ReadStream is the streaming variant of ReadPartition: instead of
// materializing every geometry, it hands the sink bounded batches —
// exactly ReadOptions.StreamBatch geometries each, except a final partial
// batch — as regions finish parsing, so a downstream consumer — the
// streaming Exchanger, an indexer, a writer — overlaps its work with the
// read instead of following it, and the rank never holds more than one
// batch.
//
// The stream is deterministic: batches arrive in file order, batch
// boundaries are a pure function of the geometry stream, and their
// concatenation is byte-for-byte the slice ReadPartition would return. The
// batch slice is only valid during the sink call (it is recycled for the
// next batch); the geometries it holds remain valid indefinitely. The sink
// runs on the rank goroutine and may use the Comm — but any collective it
// issues must be collective across ranks, and batch boundaries are not:
// ranks see different batch counts, so collectives belong in the code
// around ReadStream, not in the sink.
//
// A sink error stops further deliveries but not the read: the rank keeps
// participating in the collective read structure, and the error is settled
// at the end alongside parse errors — ReadStream always finishes with one
// error-agreement Allreduce (even under SkipErrors, which silences parse
// errors but not sink errors), so every rank of the collective call agrees
// on the outcome. On any error, the sink may have observed only a prefix
// of the stream. All ranks must call ReadStream collectively.
func ReadStream(c *mpi.Comm, f *mpiio.File, p Parser, opt ReadOptions, sink func(batch []geom.Geometry) error) (ReadStats, error) {
	if sink == nil {
		return ReadStats{}, fmt.Errorf("core: ReadStream requires a sink")
	}
	_, stats, err := readCore(c, f, p, opt, output{batch: sink})
	return stats, err
}

// output is where a read's records go: into the returned slice (the zero
// value, ReadPartition), to batch in bounded batches (ReadStream), or — the
// raw path of Exchanger.Read — into raw as scanned record bytes, with no
// geometry built at all.
type output struct {
	batch func([]geom.Geometry) error
	raw   *Exchanger
}

// readCore is the single read/boundary-repair engine behind ReadPartition,
// ReadStream and Exchanger.Read's raw path (see output). The stats' Ledger is
// the ledger delta over the whole call, error agreement included.
func readCore(c *mpi.Comm, f *mpiio.File, p Parser, opt ReadOptions, out output) ([]geom.Geometry, ReadStats, error) {
	before := c.Ledger()
	fr := opt.framing()
	n := int64(c.Size())
	fileSize := f.Size()
	blockSize := opt.BlockSize
	if blockSize <= 0 {
		blockSize = (fileSize + n - 1) / n
	}
	if blockSize <= 0 { // empty file
		return nil, ReadStats{}, nil
	}
	if opt.MaxGeomSize <= 0 {
		opt.MaxGeomSize = blockSize
	}
	repair := readMessage
	switch {
	case !fr.selfSync():
		repair = readMessageChain
	case opt.Strategy == Overlap:
		repair = readOverlap
	}
	geoms, stats, err := repair(newBlockLoop(c, f, p, opt, fr, blockSize, out))
	stats.Ledger = c.Ledger().Sub(before)
	return geoms, stats, err
}

// readArena holds one rank's reusable buffers for ReadPartition. Every
// per-iteration allocation of the read → exchange → parse loop draws from
// it, so steady-state iterations allocate nothing: blocks are read into a
// recycled buffer, ring fragments are framed and received in scratch
// space, and record assembly and the rank-0 carry reuse grown-once
// buffers. An arena belongs to a single rank (goroutine). A slice of
// its buffers is valid only until the arena's next reuse.
type readArena struct {
	block []byte // readBlock destination
	frame []byte // outbound fragment framing (flag byte + payload)
	recv  []byte // inbound fragment scratch (flag byte + payload)

	// Inbound fragment accumulation for the current iteration: payloads
	// are appended to frags back to back, ends[j] marking where payload j
	// stops. Fragments arrive in reverse file order, so consumers walk
	// ends backwards.
	frags []byte
	ends  []int

	rec []byte // straddler assembly: the inbound prefix + the rest of its record

	// carry double-buffers rank 0's cross-iteration prefix: the live
	// buffer is consumed while the next iteration's carry builds in the
	// other, then the roles swap.
	carry [2][]byte
	cur   int
}

// readBlock issues the per-iteration read at the configured access level
// into the arena's recycled block buffer. Inactive ranks pass length 0 and
// still participate in collectives. The returned slice is valid until the
// next readBlock call.
func (ar *readArena) readBlock(c *mpi.Comm, f *mpiio.File, level AccessLevel, off, length int64) ([]byte, error) {
	ar.block = arena.GrowBuf(ar.block, int(length))
	var n int
	var err error
	if level == Level1 {
		n, err = f.ReadAtAll(ar.block, off)
	} else {
		n, err = f.ReadAtSync(ar.block, off)
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return ar.block[:n], nil
}

// liveCarry returns the carry accumulated for the current iteration.
func (ar *readArena) liveCarry() []byte { return ar.carry[ar.cur] }

// stashCarry replaces the inactive carry buffer with the concatenation of
// parts; swapCarry makes it live.
func (ar *readArena) stashCarry(parts ...[]byte) {
	buf := ar.carry[1-ar.cur][:0]
	for _, p := range parts {
		buf = append(buf, p...)
	}
	ar.carry[1-ar.cur] = buf
}

// stashCarryFromFrags replaces the inactive carry buffer with the
// accumulated inbound fragments in file order — rank 0's next-iteration
// prefix. Kept as one method so the "only the inactive buffer is written"
// invariant of the double buffer lives in the arena, not the caller.
func (ar *readArena) stashCarryFromFrags() {
	ar.carry[1-ar.cur] = ar.appendFragsReversed(ar.carry[1-ar.cur][:0])
}

func (ar *readArena) swapCarry() { ar.cur = 1 - ar.cur }

// resetFrags clears the per-iteration fragment accumulator.
func (ar *readArena) resetFrags() {
	ar.frags = ar.frags[:0]
	ar.ends = ar.ends[:0]
}

// pushFrag copies one inbound payload into the fragment accumulator (the
// receive scratch it arrived in is recycled by the next receive).
func (ar *readArena) pushFrag(payload []byte) {
	ar.frags = append(ar.frags, payload...)
	ar.ends = append(ar.ends, len(ar.frags))
}

// appendFragsReversed appends the accumulated fragments in file order —
// later-arriving fragments lie earlier in the file — and returns dst.
func (ar *readArena) appendFragsReversed(dst []byte) []byte {
	for j := len(ar.ends) - 1; j >= 0; j-- {
		lo := 0
		if j > 0 {
			lo = ar.ends[j-1]
		}
		dst = append(dst, ar.frags[lo:ar.ends[j]]...)
	}
	return dst
}

// blockLoop is one rank's walk over its aligned file blocks: the set-up
// and per-iteration bookkeeping the three boundary-repair protocols share
// (the repair bodies are different algorithms and stay with them).
type blockLoop struct {
	c          *mpi.Comm
	f          *mpiio.File
	level      AccessLevel
	file       string
	pc         *parseCtx
	ar         readArena
	blockSize  int64
	iterations int

	// Set by at(i): this rank's aligned block in iteration i (length 0 for
	// a rank idle in the ragged last iteration) and whether it ends the file.
	start, length int64
	isTerminal    bool
}

// newBlockLoop opens the parse context and arena for one collective read.
func newBlockLoop(c *mpi.Comm, f *mpiio.File, p Parser, opt ReadOptions, fr Framing, blockSize int64, out output) *blockLoop {
	file := f.PFSFile().Name()
	chunk := int64(c.Size()) * blockSize
	l := &blockLoop{c: c, f: f, level: opt.Level, file: file, blockSize: blockSize,
		pc:         newParseCtx(c, p, opt, fr, f.PFSFile().Scale(), file, out),
		iterations: int((f.Size() + chunk - 1) / chunk)}
	l.pc.stats.Iterations = l.iterations
	return l
}

// at positions the loop on iteration i.
func (l *blockLoop) at(i int) {
	n, rank, fileSize := l.c.Size(), l.c.Rank(), l.f.Size()
	globalOffset := int64(i) * int64(n) * l.blockSize
	l.start = globalOffset + int64(rank)*l.blockSize
	l.length = min(l.blockSize, max(fileSize-l.start, 0))
	active := min(int((fileSize-globalOffset+l.blockSize-1)/l.blockSize), n)
	l.isTerminal = i == l.iterations-1 && rank == active-1
}

// read is the per-iteration block read: BytesRead is accounted, and a
// failure is wrapped as "<what> <i> read" at off.
func (l *blockLoop) read(i int, what string, off, length int64) ([]byte, error) {
	block, err := l.ar.readBlock(l.c, l.f, l.level, off, length)
	if err != nil {
		return nil, ioErr(l.c.Rank(), l.file, off, fmt.Sprintf("%s %d read", what, i), err)
	}
	l.pc.stats.BytesRead += int64(len(block))
	return block, nil
}

// readMessage implements Algorithm 1 for self-synchronizing framings:
// iterative aligned block reads with a ring exchange of the trailing
// incomplete record. Even ranks send then receive; odd ranks receive then
// send, avoiding the rendezvous deadlock (§4.1, Algorithm 1 lines 12-19).
// Blocks containing no record boundary at all (a record longer than the
// block) are relayed onward, flagged non-final, until a rank with the
// record's terminator assembles it. The concurrent exchange is possible
// precisely because the framing is self-synchronizing: a rank finds its own
// trailing fragment without knowing the stream phase at its block's first
// byte.
func readMessage(l *blockLoop) ([]geom.Geometry, ReadStats, error) {
	c, pc, ar, fr, file := l.c, l.pc, &l.ar, l.pc.fr, l.file
	n, rank := c.Size(), c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	for i := 0; i < l.iterations; i++ {
		l.at(i)
		start, isTerminal := l.start, l.isTerminal
		block, err := l.read(i, "iteration", start, l.length)
		if err != nil {
			return nil, pc.stats, err
		}

		// Classify this rank's block: body is parsed locally (after the
		// inbound prefix is prepended); ownMsg flows to the successor.
		// A pass-through rank contributes no delimiter and must relay all
		// inbound fragments onward.
		var body, ownMsg []byte
		ownFinal := true
		passThrough := false
		carryChain := false // rank 0: the carried prefix flows onward with the block
		switch {
		case isTerminal:
			body = block // EOF terminates the final record
		case len(block) == 0:
			passThrough = true // inactive rank in the last iteration: relay only
			ownFinal = false
		default:
			if lb := fr.lastBoundary(block); lb >= 0 {
				body, ownMsg = block[:lb], block[lb:]
			} else if rank == 0 {
				// The whole block continues the record begun in the carry;
				// both flow onward. The carry is a complete prefix (its left
				// edge is a true record start), so the chain closes here.
				carryChain = true
			} else {
				passThrough = true
				ownMsg = block
				ownFinal = false
			}
		}

		// prefix is the inbound bytes preceding body in the file; it stays
		// valid through this iteration's parse (it aliases the inactive
		// carry buffer or the fragment accumulator, which the next
		// iteration is free to recycle).
		var prefix []byte
		stitched := false // prefix needs reverse-order stitching from ar.frags
		if n == 1 {
			// Single rank: the tail simply carries into the next iteration.
			prefix = ar.liveCarry()
			if carryChain {
				ar.stashCarry(prefix, block)
				prefix = nil
			} else {
				ar.stashCarry(ownMsg)
			}
			ar.swapCarry()
		} else {
			ar.resetFrags()
			sentOwn := false
			sendOwn := func() error {
				sentOwn = true
				if carryChain {
					return ar.sendFragment(c, next, true, ar.liveCarry(), block)
				}
				return ar.sendFragment(c, next, ownFinal, ownMsg)
			}
			// Even ranks send before receiving, odd ranks after their first
			// receive — the paper's deadlock-avoiding split under blocking
			// rendezvous sends.
			if rank%2 == 0 {
				if err := sendOwn(); err != nil {
					return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d fragment send", i), err)
				}
			}
			for {
				payload, final, err := ar.recvFragment(c, prev)
				if err != nil {
					return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d fragment recv", i), err)
				}
				if !sentOwn {
					if err := sendOwn(); err != nil {
						return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d fragment send", i), err)
					}
				}
				switch {
				case rank == 0:
					// Fragments from rank n-1 belong to the head of rank 0's
					// block in the NEXT iteration.
					ar.pushFrag(payload)
				case passThrough:
					if err := ar.sendFragment(c, next, final, payload); err != nil {
						return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d fragment relay", i), err)
					}
				default:
					ar.pushFrag(payload)
				}
				if final {
					break
				}
			}
			if rank == 0 {
				if !carryChain {
					prefix = ar.liveCarry()
				}
				ar.stashCarryFromFrags() // next iteration's carry
				ar.swapCarry()
			} else if len(ar.frags) > 0 {
				stitched = true
			}
		}

		// Parse this iteration's records. Only the straddler — the inbound
		// prefix and body up to its first boundary — is copied, into ar.rec;
		// the rest of body is parsed in place. A body with no boundary is all
		// straddler.
		if stitched || len(prefix) > 0 {
			head := body
			if fb := fr.firstBoundary(body); fb >= 0 {
				head = body[:fb]
			}
			if stitched {
				ar.rec = ar.appendFragsReversed(ar.rec[:0])
			} else {
				ar.rec = append(ar.rec[:0], prefix...)
			}
			ar.rec = append(ar.rec, head...)
			body = body[len(head):]
			pc.region(ar.rec, isTerminal && len(body) == 0)
		}
		if len(body) > 0 {
			pc.region(body, isTerminal)
		}
	}
	// Anything still carried at EOF is a final unterminated record.
	if carry := ar.liveCarry(); len(carry) > 0 {
		pc.region(carry, true)
	}
	return pc.finish()
}

// readMessageChain is the boundary repair of every read over a framing that
// is not self-synchronizing (length-prefixed binary records), whatever the
// Strategy. A rank cannot locate even its own trailing fragment until it
// knows the stream phase at its block's first byte, and only its
// predecessor can tell it — so Algorithm 1's concurrent ring exchange serializes into a per-iteration
// chain seeded by rank 0, whose phase is pinned by the carry from the
// previous iteration. The serial step is cheap: classification is a header
// hop touching four bytes per record, and each rank forwards its trailing
// fragment before parsing, so the expensive parse work still overlaps
// across ranks. I/O keeps Algorithm 1's shape — aligned non-overlapping
// block reads, collective-safe because every rank enters readBlock at the
// top of each iteration before any point-to-point traffic.
//
// Chain invariant: every rank sends exactly one fragment per iteration to
// its ring successor (possibly empty, possibly a relay of an oversized
// record passing through), and rank 0 closes the ring by stashing the
// world-trailing fragment as its next-iteration carry. The terminal rank
// owns end-of-file: nothing flows past it, and leftover bytes there are
// settled by the framing's EOF rule (for binary records, truncation).
func readMessageChain(l *blockLoop) ([]geom.Geometry, ReadStats, error) {
	c, pc, ar, file := l.c, l.pc, &l.ar, l.file
	n, rank := c.Size(), c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	for i := 0; i < l.iterations; i++ {
		l.at(i)
		start, isTerminal := l.start, l.isTerminal
		block, err := l.read(i, "iteration", start, l.length)
		if err != nil {
			return nil, pc.stats, err
		}

		// The inbound prefix — the unfinished record reaching into this
		// block. Rank 0 carries it across iterations; everyone else
		// receives it from the predecessor (the chain's serializing step).
		var prefix []byte
		if rank == 0 {
			prefix = ar.liveCarry()
		} else {
			payload, _, err := ar.recvFragment(c, prev)
			if err != nil {
				return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d chain recv", i), err)
			}
			prefix = payload
		}

		// Classify prefix+block: assemble the record straddling into this
		// block, hop the headers of the records wholly inside it, and find
		// the trailing fragment. A header may itself straddle the boundary
		// — continuation reassembles it from both sides.
		var straddle, body, tail []byte
		relay := false
		if len(prefix) == 0 {
			bn := splitFramed(block)
			body, tail = block[:bn], block[bn:]
		} else if cn, ok := continueFramed(prefix, block); ok {
			ar.rec = append(ar.rec[:0], prefix...)
			ar.rec = append(ar.rec, block[:cn]...)
			straddle = ar.rec
			rest := block[cn:]
			bn := splitFramed(rest)
			body, tail = rest[:bn], rest[bn:]
		} else {
			relay = true // prefix+block still inside one record: all of it flows onward
		}

		// The terminal rank owns EOF: its leftover is settled locally by
		// the framing's EOF rule instead of flowing onward.
		var eofLeft []byte
		if isTerminal {
			if relay {
				ar.rec = append(ar.rec[:0], prefix...)
				ar.rec = append(ar.rec, block...)
				eofLeft = ar.rec
				relay = false
			} else {
				eofLeft = tail
			}
			tail = nil
		}

		// Forward the trailing fragment before parsing, so the successor's
		// classification — and with it the whole downstream chain — is
		// unblocked at memory speed.
		if n > 1 {
			var serr error
			if relay {
				serr = ar.sendFragment(c, next, true, prefix, block)
			} else {
				serr = ar.sendFragment(c, next, true, tail)
			}
			if serr != nil {
				return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d chain send", i), serr)
			}
		}

		// Parse: the straddler first (it lies earlier in the file), then
		// the records wholly inside the block, then any EOF leftover.
		if len(straddle) > 0 {
			pc.region(straddle, false)
		}
		if len(body) > 0 {
			pc.region(body, false)
		}
		pc.region(eofLeft, true)

		// Close the ring: the world-trailing fragment becomes rank 0's
		// prefix for the next iteration.
		if n == 1 {
			if relay {
				ar.stashCarry(prefix, block)
			} else {
				ar.stashCarry(tail)
			}
			ar.swapCarry()
		} else if rank == 0 {
			payload, _, err := ar.recvFragment(c, prev)
			if err != nil {
				return nil, pc.stats, ioErr(rank, file, start, fmt.Sprintf("iteration %d chain carry recv", i), err)
			}
			ar.stashCarry(payload)
			ar.swapCarry()
		}
	}
	// The terminal rank consumes everything up to EOF, so the carry must
	// drain empty; leftovers mean the file ended inside a record on a
	// non-terminal rank's watch (defensive — settle by the EOF rule).
	pc.region(ar.liveCarry(), true)
	return pc.finish()
}

// sendFragment frames the concatenation of parts with a final/more flag
// byte in the arena's framing scratch and sends it on the ring. The scratch
// is reusable as soon as Send returns (eager sends copy, rendezvous sends
// block until the receiver has copied). With no parts — the common case of
// a rank whose block ends exactly on a delimiter — the message is the bare
// flag byte and nothing is copied.
func (ar *readArena) sendFragment(c *mpi.Comm, dst int, final bool, parts ...[]byte) error {
	total := 1
	for _, part := range parts {
		total += len(part)
	}
	ar.frame = arena.GrowBuf(ar.frame, total)
	flag := fragMore
	if final {
		flag = fragFinal
	}
	ar.frame[0] = flag
	off := 1
	for _, part := range parts {
		off += copy(ar.frame[off:], part)
	}
	return c.Send(ar.frame, dst, tagFragment)
}

// recvFragment sizes the incoming fragment with Probe + Get_count — the
// alternative the paper describes to preallocating the 11 MB worst-case
// buffer (§4.1) — receives it into the arena's recycled scratch, and strips
// the framing flag. The returned payload is valid until the next
// recvFragment call; callers that keep it must copy (pushFrag).
func (ar *readArena) recvFragment(c *mpi.Comm, src int) ([]byte, bool, error) {
	st, err := c.Probe(src, tagFragment)
	if err != nil {
		return nil, false, err
	}
	ar.recv = arena.GrowBuf(ar.recv, st.Count)
	if _, err := c.Recv(ar.recv, src, tagFragment); err != nil {
		return nil, false, err
	}
	if len(ar.recv) == 0 {
		return nil, false, fmt.Errorf("core: fragment missing framing byte")
	}
	return ar.recv[1:], ar.recv[0] == fragFinal, nil
}

// readOverlap implements the halo strategy for self-synchronizing (text)
// framings: every block read is extended by MaxGeomSize bytes so
// boundary-spanning records are fully visible to the rank that owns their
// first byte, and by one leading byte so a rank finds its first owned
// record by scanning for the first boundary. Redundant I/O, no data
// messages (§4.1).
func readOverlap(l *blockLoop) ([]geom.Geometry, ReadStats, error) {
	c, pc, fr, file, fileSize := l.c, l.pc, l.pc.fr, l.file, l.f.Size()

	for i := 0; i < l.iterations; i++ {
		l.at(i)
		start, length := l.start, l.length

		// Extend by the halo and the leading byte.
		extStart := start
		if length > 0 && start > 0 {
			extStart = start - 1
		}
		var extLen int64
		if length > 0 {
			extLen = min(start-extStart+length+pc.opt.MaxGeomSize, fileSize-extStart)
		}
		block, err := l.read(i, "overlap iteration", extStart, extLen)
		if err != nil {
			return nil, pc.stats, err
		}
		if length == 0 {
			continue
		}

		// Find the first record owned by this rank: one starting in
		// [start, start+length). block[0] is the byte at start-1, so the
		// first boundary past it starts that record; none means the whole
		// extended block is one foreign record.
		pos := 0
		if start > 0 {
			if pos = fr.firstBoundary(block); pos < 0 {
				continue
			}
		}
		ownedEnd := int(start - extStart + length) // block-relative end of ownership
		if pos >= ownedEnd {
			continue
		}

		// Scan the owned records first — boundary hops only, no parsing — so
		// the whole run can be handed to the parser as one whole-record
		// region.
		runStart := pos
		incomplete := false
		for pos < ownedEnd {
			_, framed, ok := fr.next(block[pos:])
			if !ok {
				incomplete = true
				break
			}
			pos += framed
		}
		if pos > runStart {
			pc.region(block[runStart:pos], false)
		}
		if incomplete {
			// No complete record at pos: either the file ends inside it
			// (settled by the framing's EOF rule) or it overflows the halo.
			// The overflow is rank-local — only this rank's block truncates
			// the record — so it is deferred through pc.fail and settled
			// collectively in finish(), like parse errors; an immediate
			// return here would strand the other ranks in the next
			// iteration's read.
			if extStart+int64(len(block)) < fileSize {
				pc.fail(ioErr(c.Rank(), file, start, fmt.Sprintf("overlap iteration %d", i), ErrGeometryTooLarge))
			} else {
				pc.region(block[pos:], true)
			}
		}
	}
	return pc.finish()
}

// parseCtx accumulates one rank's parse results and defers parse errors so
// the collective read structure stays intact: every rank completes all
// iterations and the error becomes collective in finish(). Every record is
// parsed inline on the rank goroutine.
type parseCtx struct {
	c        *mpi.Comm
	p        Parser
	opt      ReadOptions
	fr       Framing
	scale    float64
	file     string
	geoms    []geom.Geometry
	stats    ReadStats
	firstErr error

	// Streaming mode (ReadStream): geoms doubles as the pooled batch
	// accumulator, flushed to sink whenever it reaches batchTarget. A sink
	// error (or a fatal parse error) stops deliveries; the read itself
	// continues so the collective structure stays intact, and sinkErr is
	// settled in finish's agreement Allreduce.
	sink        func([]geom.Geometry) error
	batchTarget int
	sinkErr     error

	// Raw mode (Exchanger.Read over length-prefixed WKB): records are scanned,
	// not parsed, and staged into raw as bytes on the rank goroutine; geoms
	// stays empty. It streams like ReadStream — same deliveries gate, same
	// agreement — so a staging failure is a sink error.
	raw *Exchanger
}

// defaultStreamBatch is the ReadStream batch bound when
// ReadOptions.StreamBatch is zero.
const defaultStreamBatch = 256

// newParseCtx builds the parse context for one collective read.
func newParseCtx(c *mpi.Comm, p Parser, opt ReadOptions, fr Framing, scale float64, file string, out output) *parseCtx {
	pc := &parseCtx{c: c, p: p, opt: opt, fr: fr, scale: scale, file: file, sink: out.batch, raw: out.raw}
	if pc.sink != nil {
		pc.batchTarget = opt.StreamBatch
		if pc.batchTarget <= 0 {
			pc.batchTarget = defaultStreamBatch
		}
	}
	return pc
}

// emit hands one bounded batch to the sink — unless an error has already
// doomed the read, in which case the rest of the stream is silently
// dropped: the rank still finishes its iterations for collectivity, and
// dropping keeps memory bounded.
func (pc *parseCtx) emit(batch []geom.Geometry) {
	if pc.doomed() {
		return
	}
	if err := pc.sink(batch); err != nil {
		pc.sinkErr = err
	}
}

// stage is emit for one scanned record of the raw path.
func (pc *parseCtx) stage(rec []byte, t geom.Type, env geom.Envelope) {
	if pc.doomed() {
		return
	}
	if err := pc.raw.addRaw(rec, t, env); err != nil {
		pc.sinkErr = err
	}
}

func (pc *parseCtx) doomed() bool { return pc.sinkErr != nil || pc.firstErr != nil }

// deliver flushes whatever remains in the accumulator as the stream's
// final (partial) batch.
func (pc *parseCtx) deliver() {
	if pc.sink == nil {
		return
	}
	if len(pc.geoms) > 0 {
		pc.emit(pc.geoms)
	}
	pc.geoms = pc.geoms[:0]
}

// maybeFlush emits full batches once the accumulator reaches the bound,
// keeping any remainder buffered. Exact batchTarget-sized slices make the
// batch boundaries a pure function of the geometry stream, and the sink
// runs right after the record that fills a batch, on the rank goroutine
// like every other clock-visible event.
func (pc *parseCtx) maybeFlush() {
	if pc.sink == nil || len(pc.geoms) < pc.batchTarget {
		return
	}
	off := 0
	for len(pc.geoms)-off >= pc.batchTarget {
		pc.emit(pc.geoms[off : off+pc.batchTarget])
		off += pc.batchTarget
	}
	rem := copy(pc.geoms, pc.geoms[off:])
	pc.geoms = pc.geoms[:rem]
}

// region splits a whole-record byte run into framed records and parses
// each inline. atEOF marks a run ending at end-of-file, where the framing's
// EOF rule settles a trailing unterminated record (text framing accepts it,
// binary framing reports truncation). data may alias recycled reader
// buffers; nothing is retained past the call.
func (pc *parseCtx) region(data []byte, atEOF bool) {
	for len(data) > 0 {
		payload, framed, ok := pc.fr.next(data)
		if !ok {
			tail, emit, err := pc.fr.eofTail(data)
			switch {
			case !atEOF:
				// Callers hand region whole-record runs; leftover away from
				// EOF is a framing invariant breach, not file truncation.
				pc.fail(fmt.Errorf("internal: %d unframed trailing bytes in record region", len(data)))
			case err != nil:
				pc.fail(err)
			case emit:
				pc.one(tail)
			}
			return
		}
		pc.one(payload)
		data = data[framed:]
	}
}

// one parses one record payload, charges the calibrated parse cost for the
// work actually done, and appends the geometry — or, in raw mode, scans it
// and stages its bytes while the read buffer still holds them, at the same
// charge. Malformed records are counted; the first is remembered unless
// SkipErrors is set.
func (pc *parseCtx) one(rec []byte) {
	if pc.fr.blank(rec) {
		return
	}
	if pc.raw != nil {
		t, env, err := scanWKB(rec)
		if err != nil {
			pc.fail(parseErr(rec, err))
			return
		}
		pc.c.Charge(simtime.Parse, costmodel.ParseCost(t, len(rec))*pc.scale)
		pc.stats.Records++
		pc.stage(rec, t, env)
		return
	}
	g, err := pc.p.Parse(rec)
	if err != nil {
		pc.fail(parseErr(rec, err))
		return
	}
	if g == nil {
		return
	}
	pc.c.Charge(simtime.Parse, costmodel.ParseCost(g.GeomType(), len(rec))*pc.scale)
	pc.stats.Records++
	pc.geoms = append(pc.geoms, g)
	pc.maybeFlush()
}

// parseErr is the one wording of a malformed record, on every parse path.
func parseErr(rec []byte, err error) error {
	return fmt.Errorf("parse error in record %q: %w", truncRecord(rec), err)
}

// fail records a malformed-record or framing error: counted always,
// remembered (to fail the collective read) unless SkipErrors is set.
func (pc *parseCtx) fail(err error) {
	pc.stats.Errors++
	if !pc.opt.SkipErrors && pc.firstErr == nil {
		pc.firstErr = pc.stamp(err)
	}
}

// stamp anchors a deferred record-level error to its rank and file — the
// same context ioErr gives immediate I/O errors. A record may be assembled
// from several blocks (a carried prefix, relayed fragments), so no single
// block offset is claimed; the record text in the cause pins the location
// instead.
func (pc *parseCtx) stamp(err error) error {
	return fmt.Errorf("core: rank %d file %q: %w", pc.c.Rank(), pc.file, err)
}

// finish delivers the final partial batch (streaming mode) and settles deferred errors
// collectively: one two-flag Allreduce — parse failures and sink failures
// travel separately, because SkipErrors silences the former but never the
// latter — tells every rank whether any rank failed, so all ranks of a
// collective read agree on the outcome. The local error wins the report
// (it is the concrete one); a clean rank learns of remote failures through
// the flags. The agreement is skipped only for a materialized read under
// SkipErrors, where nothing can be fatal (streaming reads, ReadStream's and
// the raw path's, always agree: their sink can fail regardless). The
// identical agreement structure on both paths means ReadPartition and a
// collecting-sink ReadStream share the exact virtual-time trajectory.
func (pc *parseCtx) finish() ([]geom.Geometry, ReadStats, error) {
	pc.deliver()
	if pc.opt.SkipErrors && pc.sink == nil && pc.raw == nil {
		return pc.geoms, pc.stats, nil
	}
	var flag [16]byte
	if pc.firstErr != nil {
		binary.LittleEndian.PutUint64(flag[0:], 1)
	}
	if pc.sinkErr != nil {
		binary.LittleEndian.PutUint64(flag[8:], 1)
	}
	out, err := pc.c.Allreduce(flag[:], 2, mpi.Int64, mpi.OpSumInt64)
	if err != nil {
		return nil, pc.stats, fmt.Errorf("core: error agreement: %w", err)
	}
	parseFailed := int64(binary.LittleEndian.Uint64(out[0:]))
	sinkFailed := int64(binary.LittleEndian.Uint64(out[8:]))
	switch {
	case pc.firstErr != nil:
		return nil, pc.stats, pc.firstErr
	case pc.sinkErr != nil:
		return nil, pc.stats, pc.sinkErr
	case parseFailed > 0:
		return nil, pc.stats, fmt.Errorf("%w (%d rank(s) affected)", ErrRemoteParse, parseFailed)
	case sinkFailed > 0:
		return nil, pc.stats, fmt.Errorf("%w (%d rank(s) affected)", ErrRemoteSink, sinkFailed)
	}
	return pc.geoms, pc.stats, nil
}

// truncRecord shortens a record for an error message. The cut backs off to
// a UTF-8 rune boundary so a multi-byte rune is never split in half — a
// fixed byte cut would embed an invalid sequence in the message (and %q
// would render a spurious \xNN escape). Binary garbage has no boundaries to
// respect: after utf8.UTFMax-1 continuation bytes the cut lands wherever.
func truncRecord(rec []byte) string {
	const limit = 60
	if len(rec) <= limit {
		return string(rec)
	}
	cut := limit
	for back := 0; back < utf8.UTFMax-1 && cut > 0 && !utf8.RuneStart(rec[cut]); back++ {
		cut--
	}
	if !utf8.RuneStart(rec[cut]) {
		cut = limit // not UTF-8 at all; any cut is as good as another
	}
	return string(rec[:cut]) + "..."
}
