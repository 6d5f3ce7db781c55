package core

import (
	"sync"

	"repro/internal/costmodel"
	"repro/internal/geom"
)

// ParserCloner is implemented by parsers that can furnish independent
// instances for the text parse workers. When ReadOptions.ParseWorkers > 0 on
// a self-synchronizing (text) framing and the supplied Parser implements it,
// every worker parses with its own clone — which is how WKTParser gives each
// worker a dedicated coordinate arena with no pool contention. A parser that
// does not implement ParserCloner is shared by all workers and must be safe
// for concurrent use (the zero value WKTParser{} is). Length-prefixed
// records always parse on the rank goroutine, so no binary parser is cloned.
type ParserCloner interface {
	Parser
	// CloneParser returns an independent Parser equivalent to the receiver.
	// The clone is used from a different goroutine; geometries it returns
	// must remain valid after the clone is discarded.
	CloneParser() Parser
}

// parseChunkTarget is the byte granularity the parallel parse path aims for
// when sharding a whole-record region into worker batches: big enough that
// the per-batch copy and channel hop amortize to noise against parsing,
// small enough that one block fans out across the whole pool.
const parseChunkTarget = 64 << 10

// parseBatch is one unit of parallel parse work: a reader-owned copy of a
// whole-record byte region plus the results the worker filled in. Batches
// are recycled through parsePool.free, so steady-state parallel ingest
// allocates only when a region outgrows every recycled buffer. The done
// channel (buffered, capacity 1) carries the worker→reader handoff: all
// result fields are written before the token is sent and read only after it
// is received.
type parseBatch struct {
	buf   []byte
	atEOF bool
	done  chan struct{}

	geoms    []geom.Geometry
	records  int
	errs     int
	firstErr error
	cost     float64 // accumulated virtual-seconds parse charge
}

// run parses the batch with the worker's parser. It mirrors parseCtx.one and
// parseCtx.records exactly — same blank handling, same error text, same
// per-record cost formula — but touches no Comm: the virtual-time charge is
// accumulated in cost and applied by the reader goroutine at merge, because
// Now/Compute are rank-single-threaded.
func (b *parseBatch) run(p Parser, fr Framing, scale float64) {
	b.geoms = b.geoms[:0]
	b.records, b.errs, b.firstErr, b.cost = 0, 0, nil, 0
	one := func(rec []byte) {
		if fr.blank(rec) {
			return
		}
		g, err := p.Parse(rec)
		if err != nil {
			b.fail(parseErr(rec, err))
			return
		}
		if g == nil {
			return
		}
		b.cost += costmodel.ParseCost(g.GeomType(), len(rec)) * scale
		b.records++
		b.geoms = append(b.geoms, g)
	}
	parseRegion(fr, b.buf, b.atEOF, one, b.fail)
}

// fail records a malformed record: counted always, first one remembered
// (the reader applies SkipErrors at merge).
func (b *parseBatch) fail(err error) {
	b.errs++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// parsePool is one rank's text parse worker pool. The reader goroutine
// submits batches in file order and merges them back in the same order, so
// the geometry stream is deterministic regardless of worker count or
// scheduling.
// The in-flight window is bounded (limit batches, work channel of the same
// capacity), which both bounds memory and makes the virtual-time accounting
// deterministic: merges — the only points where parse cost reaches the
// rank's clock — happen at fixed program points (window overflow, explicit
// drain, finish), never at racy worker-completion times.
type parsePool struct {
	fr    Framing
	scale float64
	work  chan *parseBatch
	wg    sync.WaitGroup

	queue  []*parseBatch // submitted, not yet merged; file order
	free   []*parseBatch // recycled batches, reader-owned
	limit  int
	closed bool
}

// newParsePool starts workers goroutines, each with its own parser clone
// when the supplied parser can furnish one (see ParserCloner).
func newParsePool(workers int, p Parser, fr Framing, scale float64) *parsePool {
	limit := 2 * workers
	pl := &parsePool{
		fr:    fr,
		scale: scale,
		work:  make(chan *parseBatch, limit),
		limit: limit,
	}
	for w := 0; w < workers; w++ {
		wp := p
		if cl, ok := p.(ParserCloner); ok {
			wp = cl.CloneParser()
		}
		pl.wg.Add(1)
		go func(wp Parser) {
			defer pl.wg.Done()
			for b := range pl.work {
				b.run(wp, pl.fr, pl.scale)
				b.done <- struct{}{}
			}
		}(wp)
	}
	return pl
}

// get returns a recycled batch or a fresh one.
func (pl *parsePool) get() *parseBatch {
	if n := len(pl.free); n > 0 {
		b := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return b
	}
	return &parseBatch{done: make(chan struct{}, 1)}
}

// submit copies data into a batch and hands it to the pool, first merging
// the oldest outstanding batch if the in-flight window is full. Because the
// queue never exceeds limit and the work channel holds limit, the channel
// send cannot block.
func (pc *parseCtx) submit(data []byte, atEOF bool) {
	pl := pc.pool
	if len(pl.queue) >= pl.limit {
		pc.mergeOldest()
	}
	b := pl.get()
	b.buf = append(b.buf[:0], data...)
	b.atEOF = atEOF
	pl.queue = append(pl.queue, b)
	pl.work <- b
}

// mergeOldest joins the oldest outstanding batch on the reader goroutine:
// geometries are appended in file order, the batch's accumulated parse cost
// is charged to the rank's clock, and errors flow through the same
// SkipErrors gate as the serial path. The drained batch is recycled.
func (pc *parseCtx) mergeOldest() {
	pl := pc.pool
	b := pl.queue[0]
	copy(pl.queue, pl.queue[1:])
	pl.queue[len(pl.queue)-1] = nil
	pl.queue = pl.queue[:len(pl.queue)-1]

	<-b.done
	pc.geoms = append(pc.geoms, b.geoms...)
	pc.stats.Records += b.records
	pc.stats.Errors += b.errs
	if b.firstErr != nil && !pc.opt.SkipErrors && pc.firstErr == nil {
		pc.firstErr = pc.stamp(b.firstErr)
	}
	if b.cost > 0 {
		pc.c.Compute(b.cost)
		pc.stats.ParseTime += b.cost
	}
	pl.free = append(pl.free, b)
	pc.maybeFlush()
}

// drain merges every outstanding batch, in file order.
func (pc *parseCtx) drain() {
	if pc.pool == nil {
		return
	}
	for len(pc.pool.queue) > 0 {
		pc.mergeOldest()
	}
}

// close stops the workers. Idempotent; safe on error paths with batches
// still in flight (workers finish the queued work and exit — the buffered
// done channels mean nobody blocks on the abandoned results).
func (pc *parseCtx) close() {
	if pc.pool == nil || pc.pool.closed {
		return
	}
	pc.pool.closed = true
	close(pc.pool.work)
	pc.pool.wg.Wait()
}
