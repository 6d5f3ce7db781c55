package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// probeEnv is one workload's data as the layer probes see it: the input
// files, the cellular decomposition the workload partitions with, the
// query rectangles, and — prepared once, untimed — every intermediate
// product a probe needs as its input, so that each probe times exactly
// one layer's public calls and nothing else.
type probeEnv struct {
	layers []*layer        // the workload's files (join: R then S)
	part   grid.Partition  // the workload's grid
	direct bool            // Partitioner.DirectGrid as the workload sets it
	rects  []geom.Envelope // the seeded query cycle

	wktRecs [][]byte        // every record of every layer as WKT text
	wkbRecs [][]byte        // the same records as WKB payloads
	geoms   []geom.Geometry // the same records parsed
	verts   int             // total vertices of geoms

	// locals[l][r] is what ReadPartition hands rank r from layer l. Layer
	// 1 is the probe side S of the polygon-polygon pairs: the join's second
	// file, or every 8th geometry of the only layer.
	locals [2][ranks][]geom.Geometry
	cells  [2][ranks]map[int][]geom.Geometry         // the exchange's output
	trees  [ranks]map[int]*rtree.Tree[geom.Geometry] // bulk-loaded R side

	polyPairs, rectPairs []pair // candidate pairs harvested by Search
	sendBytes            [ranks][ranks]int

	sess   [ranks]*serve.Session // one evaluation core per rank over trees
	svc    *standing             // a Service standing over the same trees
	nextID uint64                // request ids stay unique for svc's life
	// Each request's latency in the latest run of the direct-Session and
	// the Service probe: dispatch overhead is their per-request difference.
	sessionNs, serviceNs []float64
}

// pair is one filter-phase candidate awaiting refinement.
type pair struct{ a, b geom.Geometry }

// stubParser makes ReadPartition do everything but parse: one shared
// point per record, so framing, boundary repair and record scanning are
// all that is left of the read.
type stubParser struct{}

var stubPoint = geom.Point{X: 1, Y: 1}

func (stubParser) Parse([]byte) (geom.Geometry, error) { return stubPoint, nil }

// total sums one value per rank.
func total(perRank [ranks]float64) float64 {
	var t float64
	for _, v := range perRank {
		t += v
	}
	return t
}

// inWorld runs fn on the benchmark's fixed world.
func inWorld(fn func(c *mpi.Comm) error) error { return mpi.Run(cluster.Local(ranks), fn) }

func (e *probeEnv) partitioner() *core.Partitioner {
	return &core.Partitioner{Grid: e.part, DirectGrid: e.direct}
}

// splitRecords cuts a layer's file into its record payloads.
func splitRecords(l *layer) ([][]byte, error) {
	data := make([]byte, l.file.Size())
	if _, err := l.file.ReadAt(data, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("read %s: %w", l.file.Name(), err)
	}
	var out [][]byte
	if l.enc == datagen.EncodingWKT {
		for _, rec := range bytes.Split(data, []byte{'\n'}) {
			if len(rec) > 0 {
				out = append(out, rec)
			}
		}
		return out, nil
	}
	for len(data) >= 4 {
		n := int(binary.LittleEndian.Uint32(data))
		if 4+n > len(data) {
			return nil, fmt.Errorf("%s: truncated record", l.file.Name())
		}
		out = append(out, data[4:4+n])
		data = data[4+n:]
	}
	return out, nil
}

// prepare builds every probe input. Nothing here is timed.
func prepare(layers []*layer, part grid.Partition, direct bool, rects []geom.Envelope) (*probeEnv, error) {
	e := &probeEnv{layers: layers, part: part, direct: direct, rects: rects}
	for _, l := range layers {
		recs, err := splitRecords(l)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			var g geom.Geometry
			if l.enc == datagen.EncodingWKT {
				g, err = wkt.Parse(rec)
			} else {
				g, _, err = wkb.Decode(rec)
			}
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", l.file.Name(), err)
			}
			e.geoms = append(e.geoms, g)
			e.verts += g.NumPoints()
			e.wktRecs = append(e.wktRecs, wkt.Append(nil, g))
			e.wkbRecs = append(e.wkbRecs, wkb.Append(nil, g))
		}
	}

	// Per-rank slices exactly as the fused op's ranks receive them.
	err := inWorld(func(c *mpi.Comm) error {
		for li, l := range layers {
			local, _, err := core.ReadPartition(c, mpiio.Open(c, l.file, mpiio.Hints{}), l.parser(), l.readOptions())
			if err != nil {
				return err
			}
			e.locals[li][c.Rank()] = local
		}
		if len(layers) == 1 {
			for i, g := range e.locals[0][c.Rank()] {
				if i%8 == 0 {
					e.locals[1][c.Rank()] = append(e.locals[1][c.Rank()], g)
				}
			}
		}
		if e.part == nil { // the join sizes its grid from the data, as Join does
			env, err := core.GlobalEnvelope(c, core.LocalEnvelope(e.locals[0][c.Rank()]).Union(core.LocalEnvelope(e.locals[1][c.Rank()])))
			if err != nil {
				return err
			}
			g, err := grid.New(env, 32, 32) // spatial's default 1024 cells
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				e.part = g
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		for li := range e.locals {
			cells, _, err := e.partitioner().Exchange(c, e.locals[li][c.Rank()])
			if err != nil {
				return err
			}
			e.cells[li][c.Rank()] = cells
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	for r := 0; r < ranks; r++ {
		e.trees[r] = e.bulkLoad(r)
	}
	e.polyPairs = e.searchPoly()
	e.rectPairs = e.searchRect()
	for r := range e.sess {
		e.sess[r] = serve.NewSession(serve.SessionConfig{
			Partition: e.part, Rank: r, Size: ranks, Scale: cluster.Local(ranks).Scale(), Trees: e.trees[r],
		})
	}
	e.svc = e.resident()
	e.sessionNs, e.serviceNs = make([]float64, len(rects)), make([]float64, len(rects))

	// The bytes each rank's exchange frames carry to each destination:
	// every (geometry, cell) placement ships the WKB payload to the cell's
	// owner.
	rankFor := grid.MappingOf(e.part)
	for li := 0; li < len(layers); li++ {
		for r := 0; r < ranks; r++ {
			for _, g := range e.locals[li][r] {
				n := len(wkb.Append(nil, g))
				for _, cell := range e.part.CellsFor(g.Envelope()) {
					e.sendBytes[r][rankFor(cell, ranks)] += n
				}
			}
		}
	}
	return e, nil
}

// sortedCells returns a cell map's ids in ascending order.
func sortedCells[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// bulkLoad builds rank r's per-cell R-trees over the R side.
func (e *probeEnv) bulkLoad(r int) map[int]*rtree.Tree[geom.Geometry] {
	trees := make(map[int]*rtree.Tree[geom.Geometry], len(e.cells[0][r]))
	var items []rtree.Item[geom.Geometry]
	for _, cell := range sortedCells(e.cells[0][r]) {
		items = items[:0]
		for _, g := range e.cells[0][r][cell] {
			items = append(items, rtree.Item[geom.Geometry]{Env: g.Envelope(), Value: g})
		}
		trees[cell] = rtree.BulkLoad(items)
	}
	return trees
}

// searchPoly is the join's filter phase: every S geometry queries the
// tree of each cell the exchange placed it in; the reference-point rule
// keeps a pair in exactly one cell.
func (e *probeEnv) searchPoly() []pair {
	var out []pair
	for r := 0; r < ranks; r++ {
		for _, cell := range sortedCells(e.cells[1][r]) {
			tr := e.trees[r][cell]
			if tr == nil {
				continue
			}
			for _, sg := range e.cells[1][r][cell] {
				for _, gg := range tr.Query(sg.Envelope()) {
					if grid.PairRefCell(e.part, gg.Envelope(), sg.Envelope()) == cell {
						out = append(out, pair{gg, sg})
					}
				}
			}
		}
	}
	return out
}

// searchRect is the range query's filter phase: every rectangle queries
// the tree of each cell it overlaps.
func (e *probeEnv) searchRect() []pair {
	var out []pair
	rankFor := grid.MappingOf(e.part)
	for _, q := range e.rects {
		qPoly := q.ToPolygon()
		for _, cell := range e.part.CellsFor(q) {
			tr := e.trees[rankFor(cell, ranks)][cell]
			if tr == nil {
				continue
			}
			for _, gg := range tr.Query(q) {
				if grid.PairRefCell(e.part, gg.Envelope(), q) == cell {
					out = append(out, pair{gg, qPoly})
				}
			}
		}
	}
	return out
}

// probe is one layer measured from outside through its public calls: run
// makes the calls (the caller times it) and returns what the layer counted
// while making them.
type probe struct {
	name string
	run  func(e *probeEnv) (map[string]float64, error)
}

// fileBytes is the size of all of the workload's files.
func (e *probeEnv) fileBytes() float64 { return float64(inputBytes(e.layers)) }

// rankBlocks reads every layer in BlockSize chunks inside the world: rank
// r reads blocks r, r+ranks, ..., every rank making the same number of
// calls (a collective read needs every rank in every call).
func (e *probeEnv) rankBlocks(collective bool) error {
	return inWorld(func(c *mpi.Comm) error {
		for _, l := range e.layers {
			mf := mpiio.Open(c, l.file, mpiio.Hints{})
			bs := l.readOptions().BlockSize
			buf := make([]byte, bs)
			for off := int64(c.Rank()) * bs; off-int64(c.Rank())*bs < l.file.Size(); off += ranks * bs {
				b := buf
				if off >= l.file.Size() {
					b = nil // past the end: still join the collective
				}
				var err error
				if collective {
					_, err = mf.ReadAtAll(b, off)
				} else if b != nil {
					_, err = mf.ReadAt(b, off)
				}
				if err != nil && !errors.Is(err, io.EOF) {
					return err
				}
			}
		}
		return nil
	})
}

// streamBatch is ReadOptions.StreamBatch's default: the batch size the
// fused ReadExchange feeds its Exchanger with.
const streamBatch = 256

// exchangeAll runs the workload's exchange over its real layers on
// pre-parsed slices, materialized or streamed in streamBatch-sized adds.
func (e *probeEnv) exchangeAll(streamed bool) (map[string]float64, error) {
	var sent, quarantined [ranks]float64
	var byteImb, geomImb float64
	err := inWorld(func(c *mpi.Comm) error {
		for li := range e.layers {
			local := e.locals[li][c.Rank()]
			var st core.ExchangeStats
			var err error
			if streamed {
				var ex *core.Exchanger
				if ex, err = e.partitioner().Stream(c); err != nil {
					return err
				}
				for i := 0; i < len(local); i += streamBatch {
					if err = ex.Add(local[i:min(i+streamBatch, len(local))]); err != nil {
						return err
					}
				}
				_, st, err = ex.Finish()
			} else {
				_, st, err = e.partitioner().Exchange(c, local)
			}
			if err != nil {
				return err
			}
			sent[c.Rank()] += float64(st.BytesSent)
			quarantined[c.Rank()] += float64(st.FramesQuarantined)
			if c.Rank() == 0 {
				byteImb, geomImb = max(byteImb, st.ByteImbalance), max(geomImb, st.GeomImbalance)
			}
		}
		return nil
	})
	return map[string]float64{
		"bytes_sent": total(sent), "quarantined": total(quarantined),
		"byte_imbalance": byteImb, "geom_imbalance": geomImb,
	}, err
}

// refine runs the exact predicate over harvested candidates.
func refine(pairs []pair) map[string]float64 {
	var hit float64
	for _, p := range pairs {
		if geom.Intersects(p.a, p.b) {
			hit++
		}
	}
	return map[string]float64{"pairs": float64(len(pairs)), "accepted": hit}
}

// resident stands a Service up over the prepared trees (no ingest, no
// exchange: spatial.Serve only wraps the trees in a Session, registers it
// and parks).
func (e *probeEnv) resident() *standing {
	s := &standing{svc: serve.NewService(ranks), done: make(chan error, 1)}
	go func() {
		s.done <- inWorld(func(c *mpi.Comm) error {
			spatial.Serve(c, s.svc, e.part, e.trees[c.Rank()], spatial.JoinOptions{})
			return nil
		})
	}()
	<-s.svc.Ready()
	return s
}

// mpi probe sizes.
const (
	pingPongs   = 2000
	rendezvous  = 64
	allreduces  = 2000
	alltoallvs  = 4
	oneMiB      = 1 << 20
	pingPayload = 64
)

// probes lists every layer probe. Names are the span names of the trace.
var probes = []probe{
	{"pfs.read", func(e *probeEnv) (map[string]float64, error) {
		for _, l := range e.layers {
			buf := make([]byte, l.readOptions().BlockSize)
			for off := int64(0); off < l.file.Size(); off += int64(len(buf)) {
				if _, err := l.file.ReadAt(buf, off); err != nil && !errors.Is(err, io.EOF) {
					return nil, err
				}
			}
		}
		return nil, nil
	}},
	{"mpiio.read_at", func(e *probeEnv) (map[string]float64, error) { return nil, e.rankBlocks(false) }},
	{"mpiio.read_at_all", func(e *probeEnv) (map[string]float64, error) { return nil, e.rankBlocks(true) }},
	{"core.read_noparse", func(e *probeEnv) (map[string]float64, error) {
		var msgs, sent [ranks]float64
		err := inWorld(func(c *mpi.Comm) error {
			for _, l := range e.layers {
				if _, _, err := core.ReadPartition(c, mpiio.Open(c, l.file, mpiio.Hints{}), stubParser{}, l.readOptions()); err != nil {
					return err
				}
			}
			msgs[c.Rank()], sent[c.Rank()] = float64(c.MsgsSent()), float64(c.BytesSent())
			return nil
		})
		return map[string]float64{"msgs": total(msgs), "bytes": total(sent)}, err
	}},
	{"wkt.parse", func(e *probeEnv) (map[string]float64, error) {
		p := core.NewWKTParser()
		var bytes float64
		for _, rec := range e.wktRecs {
			if _, err := p.Parse(rec); err != nil {
				return nil, err
			}
			bytes += float64(len(rec))
		}
		return map[string]float64{"bytes": bytes}, nil
	}},
	{"wkb.decode", func(e *probeEnv) (map[string]float64, error) {
		p := core.NewWKBParser()
		var bytes float64
		for _, rec := range e.wkbRecs {
			if _, err := p.Parse(rec); err != nil {
				return nil, err
			}
			bytes += float64(len(rec))
		}
		return map[string]float64{"bytes": bytes}, nil
	}},
	{"wkb.encode", func(e *probeEnv) (map[string]float64, error) {
		var buf []byte
		var bytes float64
		for _, g := range e.geoms {
			buf = wkb.Append(buf[:0], g)
			bytes += float64(len(buf))
		}
		return map[string]float64{"bytes": bytes}, nil
	}},
	{"grid.cells_for", func(e *probeEnv) (map[string]float64, error) {
		var cells float64
		for _, g := range e.geoms {
			cells += float64(len(e.part.CellsFor(g.Envelope())))
		}
		return map[string]float64{"cells": cells}, nil
	}},
	{"grid.route", func(e *probeEnv) (map[string]float64, error) {
		var cells float64
		for _, q := range e.rects {
			cells += float64(len(e.part.CellsFor(q)))
		}
		return map[string]float64{"cells": cells}, nil
	}},
	{"core.global_envelope", func(e *probeEnv) (map[string]float64, error) {
		return nil, inWorld(func(c *mpi.Comm) error {
			local := geom.EmptyEnvelope()
			for li := range e.layers {
				local = local.Union(core.LocalEnvelope(e.locals[li][c.Rank()]))
			}
			_, err := core.GlobalEnvelope(c, local)
			return err
		})
	}},
	{"core.exchange", func(e *probeEnv) (map[string]float64, error) { return e.exchangeAll(false) }},
	{"core.exchange_stream", func(e *probeEnv) (map[string]float64, error) { return e.exchangeAll(true) }},
	{"mpi.sendrecv", func(e *probeEnv) (map[string]float64, error) {
		return nil, inWorld(func(c *mpi.Comm) error {
			buf := make([]byte, pingPayload)
			peer := 1 - c.Rank()
			for i := 0; i < pingPongs; i++ {
				if c.Rank() == 0 {
					if err := c.Send(buf, peer, 1); err != nil {
						return err
					}
				}
				if _, err := c.Recv(buf, peer, 1); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(buf, peer, 1); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}},
	{"mpi.sendrecv_1m", func(e *probeEnv) (map[string]float64, error) {
		return nil, inWorld(func(c *mpi.Comm) error {
			buf, ack := make([]byte, oneMiB), make([]byte, 1)
			for i := 0; i < rendezvous; i++ {
				if c.Rank() == 0 {
					if err := c.Send(buf, 1, 2); err != nil {
						return err
					}
					if _, err := c.Recv(ack, 1, 3); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(buf, 0, 2); err != nil {
						return err
					}
					if err := c.Send(ack, 0, 3); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}},
	{"mpi.allreduce", func(e *probeEnv) (map[string]float64, error) {
		return nil, inWorld(func(c *mpi.Comm) error {
			buf := make([]byte, 8)
			for i := 0; i < allreduces; i++ {
				if _, err := c.Allreduce(buf, 1, mpi.Float64, mpi.OpMaxFloat64); err != nil {
					return err
				}
			}
			return nil
		})
	}},
	{"mpi.alltoallv", func(e *probeEnv) (map[string]float64, error) {
		var bytes float64
		err := inWorld(func(c *mpi.Comm) error {
			send := make([][]byte, ranks)
			recv := make([]int, ranks)
			for r := range send {
				send[r] = make([]byte, e.sendBytes[c.Rank()][r])
				recv[r] = e.sendBytes[r][c.Rank()]
			}
			for i := 0; i < alltoallvs; i++ {
				if _, err := c.Alltoallv(send, recv); err != nil {
					return err
				}
			}
			return nil
		})
		for _, row := range e.sendBytes {
			for _, n := range row {
				bytes += float64(n) * alltoallvs
			}
		}
		return map[string]float64{"bytes": bytes}, err
	}},
	{"rtree.bulk_load", func(e *probeEnv) (map[string]float64, error) {
		var entries float64
		for r := 0; r < ranks; r++ {
			for _, tr := range e.bulkLoad(r) {
				entries += float64(tr.Len())
			}
		}
		return map[string]float64{"entries": entries}, nil
	}},
	{"rtree.search_poly", func(e *probeEnv) (map[string]float64, error) {
		var queries float64
		for r := 0; r < ranks; r++ {
			for _, gs := range e.cells[1][r] {
				queries += float64(len(gs))
			}
		}
		return map[string]float64{"queries": queries, "candidates": float64(len(e.searchPoly()))}, nil
	}},
	{"rtree.search_rect", func(e *probeEnv) (map[string]float64, error) {
		return map[string]float64{"queries": float64(len(e.rects)), "candidates": float64(len(e.searchRect()))}, nil
	}},
	{"geom.intersects_poly", func(e *probeEnv) (map[string]float64, error) { return refine(e.polyPairs), nil }},
	{"geom.intersects_rect", func(e *probeEnv) (map[string]float64, error) { return refine(e.rectPairs), nil }},
	{"spatial.build_index", func(e *probeEnv) (map[string]float64, error) {
		return nil, inWorld(func(c *mpi.Comm) error {
			_, _, _, err := spatial.BuildIndex(c, e.locals[0][c.Rank()], spatial.IndexOptions{Partition: e.part})
			return err
		})
	}},
	{"spatial.join", func(e *probeEnv) (map[string]float64, error) {
		var pairs [ranks]float64
		err := inWorld(func(c *mpi.Comm) error {
			bd, err := spatial.Join(c, e.locals[0][c.Rank()], e.locals[1][c.Rank()], spatial.JoinOptions{Partition: e.part})
			pairs[c.Rank()] = float64(bd.Pairs)
			return err
		})
		return map[string]float64{"pairs": total(pairs)}, err
	}},
	{"spatial.range_query", func(e *probeEnv) (map[string]float64, error) {
		var pairs [ranks]float64
		err := inWorld(func(c *mpi.Comm) error {
			bd, err := spatial.RangeQuery(c, e.locals[0][c.Rank()], e.rects, spatial.JoinOptions{Partition: e.part})
			pairs[c.Rank()] = float64(bd.Pairs)
			return err
		})
		return map[string]float64{"pairs": total(pairs)}, err
	}},
	{"serve.session_range", func(e *probeEnv) (map[string]float64, error) {
		noCharge := func(float64) {}
		var pairs float64
		for i, q := range e.rects {
			t0 := time.Now()
			for _, s := range e.sess {
				pairs += float64(s.Range(q, noCharge, nil))
			}
			e.sessionNs[i] = float64(time.Since(t0))
		}
		return map[string]float64{"pairs": pairs}, nil
	}},
	{"serve.service_range", func(e *probeEnv) (map[string]float64, error) {
		var pairs float64
		for i, q := range e.rects {
			t0 := time.Now()
			res, err := e.svc.svc.Range(e.nextID, q)
			e.serviceNs[i] = float64(time.Since(t0))
			if err != nil {
				return nil, err
			}
			e.nextID++
			pairs += float64(res.Pairs)
		}
		return map[string]float64{"pairs": pairs}, nil
	}},
}
