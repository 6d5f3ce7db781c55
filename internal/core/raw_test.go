package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkb"
)

// geometryPath hides a WKBParser behind another type, so ReadExchange feeds
// ReadStream's batches to Exchanger.Add instead of taking the raw path.
type geometryPath struct{ Parser }

// TestRawPathApplies: the raw path is a property of the input — the stock
// WKB parser, zero value or dedicated, over length-prefixed framing — and
// nothing else takes it.
func TestRawPathApplies(t *testing.T) {
	cases := []struct {
		p    Parser
		fr   Framing
		want bool
	}{
		{NewWKBParser(), LengthPrefixed(), true},
		{WKBParser{}, LengthPrefixed(), true},
		{geometryPath{NewWKBParser()}, LengthPrefixed(), false},
		{NewWKBParser(), nil, false},
		{NewWKBParser(), Delimited('\n'), false},
		{NewWKTParser(), nil, false},
	}
	for _, c := range cases {
		if got := rawPath(c.p, c.fr); got != c.want {
			t.Errorf("rawPath(%T, %v) = %v, want %v", c.p, c.fr, got, c.want)
		}
	}
}

// rankOutcome is everything one rank can observe of a ReadExchange: cells
// (each geometry as its WKB, so the comparison is bitwise), both stats, the
// error text and the final virtual clock.
type rankOutcome struct {
	cells map[int][]string
	read  ReadStats
	ex    ExchangeStats
	err   string
	clock float64
}

// readExchangeOutcomes runs ReadExchange on every rank of a 3-rank world and
// collects each rank's outcome. Rank errors are recorded, not propagated, so
// a settled failure does not become a world abort.
func readExchangeOutcomes(t *testing.T, pf *pfs.File, mk func() Parser, opt ReadOptions, pt func(c *mpi.Comm) *Partitioner) []rankOutcome {
	t.Helper()
	const ranks = 3
	var mu sync.Mutex
	out := make([]rankOutcome, ranks)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		cells, rst, est, err := ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), mk(), opt, pt(c))
		o := rankOutcome{cells: make(map[int][]string, len(cells)), read: rst, ex: est, clock: c.Now()}
		for cell, gs := range cells {
			for _, g := range gs {
				o.cells[cell] = append(o.cells[cell], string(wkb.Encode(g)))
			}
		}
		if err != nil {
			o.err = err.Error()
		}
		mu.Lock()
		out[c.Rank()] = o
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// badRecordsFile writes n generated geometries as length-prefixed WKB with
// three malformed records spliced in: a truncated payload, a MULTIPOLYGON
// whose element is a linestring, and a point followed by trailing garbage.
func badRecordsFile(t *testing.T, n int, seed int64) *pfs.File {
	t.Helper()
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("bad.wkb", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	framed := func(payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	poly := wkb.Encode(&geom.Polygon{Shell: []geom.Point{{X: 1, Y: 1}, {X: 9, Y: 1}, {X: 9, Y: 9}, {X: 1, Y: 1}}})
	wrongElem := append([]byte{1, 6, 0, 0, 0, 1, 0, 0, 0}, wkb.Encode(&geom.LineString{Pts: []geom.Point{{X: 2, Y: 2}, {X: 3, Y: 3}}})...)
	bad := map[int][]byte{
		n / 4:     framed(poly[:len(poly)-5]),
		n / 2:     framed(wrongElem),
		3 * n / 4: framed(append(wkb.Encode(geom.Point{X: 4, Y: 4}), 0xde, 0xad, 0xbe)),
	}
	var buf []byte
	for i, g := range genGeoms(t, n, seed) {
		if rec, ok := bad[i]; ok {
			f.Append(rec)
		}
		buf = wkb.AppendFramed(buf[:0], g)
		f.Append(buf)
	}
	return f
}

// TestRawPathParity: ReadExchange over length-prefixed WKB takes the raw
// path, and everything it produces — ReadStats, error text, cells and their
// order, every ExchangeStats field, the final virtual clock — is bitwise the
// geometry path's, on clean input across strategies, windows and both
// cell-lookup mechanisms; on a file with a truncated, a wrong-element-type
// and a trailing-garbage record, strict and under SkipErrors; and under a
// FrameCorrupt plan with SkipBadFrames.
func TestRawPathParity(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	raw := func() Parser { return NewWKBParser() }
	wrapped := func() Parser { return geometryPath{WKBParser{}} }
	partitioner := func(window int, direct, skipBad bool, plan *fault.Plan) func(c *mpi.Comm) *Partitioner {
		var inj *fault.Injector
		if plan != nil {
			inj = plan.New()
		}
		return func(c *mpi.Comm) *Partitioner {
			g, err := grid.New(world, 8, 8)
			if err != nil {
				panic(err)
			}
			pt := &Partitioner{Grid: g, WindowCells: window, DirectGrid: direct, SkipBadFrames: skipBad}
			if inj != nil {
				pt.FrameFault = inj.FrameFault(c.Rank())
			}
			return pt
		}
	}
	compare := func(label string, pf *pfs.File, opt ReadOptions, pt func() func(c *mpi.Comm) *Partitioner) []rankOutcome {
		t.Helper()
		want := readExchangeOutcomes(t, pf, wrapped, opt, pt())
		got := readExchangeOutcomes(t, pf, raw, opt, pt())
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Errorf("%s: rank %d raw path differs from the geometry path:\n raw  %+v %+v %q %v\n geom %+v %+v %q %v",
					label, r, got[r].read, got[r].ex, got[r].err, got[r].clock, want[r].read, want[r].ex, want[r].err, want[r].clock)
			}
		}
		return got
	}

	clean := makeWKBFile(t, genGeoms(t, 400, 41))
	for _, strat := range []Strategy{MessageBased, Overlap} {
		for _, window := range []int{0, 5} {
			for _, direct := range []bool{true, false} {
				opt := ReadOptions{BlockSize: 1 << 10, Strategy: strat, MaxGeomSize: 2 << 10,
					Framing: LengthPrefixed(), StreamBatch: 29}
				label := fmt.Sprintf("clean %s window=%d direct=%v", strat, window, direct)
				out := compare(label, clean, opt, func() func(*mpi.Comm) *Partitioner {
					return partitioner(window, direct, false, nil)
				})
				if out[0].err != "" || out[0].read.Records == 0 {
					t.Fatalf("%s: clean run read %d records, err %q", label, out[0].read.Records, out[0].err)
				}
			}
		}
	}

	bad := badRecordsFile(t, 300, 43)
	for _, skip := range []bool{false, true} {
		opt := ReadOptions{BlockSize: 1 << 10, Framing: LengthPrefixed(), SkipErrors: skip, StreamBatch: 29}
		label := fmt.Sprintf("bad records skip=%v", skip)
		out := compare(label, bad, opt, func() func(*mpi.Comm) *Partitioner {
			return partitioner(0, true, false, nil)
		})
		errs, failed := 0, 0
		for _, o := range out {
			errs += o.read.Errors
			if o.err != "" {
				failed++
			}
		}
		wantFailed := 3
		if skip {
			wantFailed = 0
		}
		if errs != 3 || failed != wantFailed {
			t.Errorf("%s: %d bad records counted, %d ranks failed", label, errs, failed)
		}
	}

	plan := fault.Plan{Seed: 21, Rules: []fault.Rule{fault.FrameCorrupt(0, -1, 1)}}
	opt := ReadOptions{BlockSize: 1 << 10, Framing: LengthPrefixed()}
	out := compare("frame corruption", clean, opt, func() func(*mpi.Comm) *Partitioner {
		return partitioner(7, true, true, &plan)
	})
	if out[0].ex.FramesQuarantined == 0 {
		t.Errorf("frame corruption: nothing quarantined; the plan exercised nothing")
	}
}

// TestStagingDoesNotRegrow pins the staging contract: K frames of B bytes
// in total cost at most ⌈B/maxChunk⌉ chunks plus a constant (the ramp, the
// chunk list) and about B bytes — the chunks alone, which the payload round
// sends as they are — where an appended buffer copies each byte about four
// times; and BytesSent is exactly the staged frame bytes on both paths.
func TestStagingDoesNotRegrow(t *testing.T) {
	shell := make([]geom.Point, 0, 61)
	for i := 0; i < 60; i++ {
		shell = append(shell, geom.Point{X: float64(i % 7), Y: float64(i % 5)})
	}
	poly := &geom.Polygon{Shell: append(shell, shell[0])}
	rec := wkb.Encode(poly)
	const k = 4096
	b := k * (exchangeHeader + len(rec))
	stage := func() {
		var s frameStage
		for i := 0; i < k; i++ {
			copy(s.frame(i, len(rec)), rec)
		}
		n := 0
		for _, ch := range s.chunks {
			n += len(ch)
		}
		if n != b || s.size != b {
			t.Fatalf("staged %d bytes (size %d), want %d", n, s.size, b)
		}
	}
	if allocs, budget := testing.AllocsPerRun(3, stage), float64((b+maxChunk-1)/maxChunk+16); allocs > budget {
		t.Errorf("staging %d bytes made %v allocations, budget %v", b, allocs, budget)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(b+2*maxChunk) {
		t.Errorf("staging %d bytes allocated %d: frames were copied while staged", b, got)
	}

	g, err := grid.New(geom.Envelope{MinX: -1, MinY: -1, MaxX: 10, MaxY: 10}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, viaRaw := range []bool{false, true} {
		err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
			ex, err := (&Partitioner{Grid: g, DirectGrid: true}).Stream(c)
			if err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				if viaRaw {
					err = ex.addRaw(rec, poly.GeomType(), poly.Envelope())
				} else {
					err = ex.Add([]geom.Geometry{poly})
				}
				if err != nil {
					return err
				}
			}
			_, st, err := ex.Finish()
			if err != nil {
				return err
			}
			if st.BytesSent != int64(b) || st.GeomsRecv != k {
				return fmt.Errorf("raw=%v: BytesSent %d for %d staged bytes, %d geometries received", viaRaw, st.BytesSent, b, st.GeomsRecv)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelfBlockFaultParity: the rank's own stage is decoded straight from
// its staging chunks unless a FrameFault hook is installed, which joins it
// first. A no-op hook must therefore change nothing — cells, their order,
// every ExchangeStats field and the final clock — on both the raw and the
// geometry path, in one phase and in sliding-window phases.
func TestSelfBlockFaultParity(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	pf := makeWKBFile(t, genGeoms(t, 400, 47))
	opt := ReadOptions{BlockSize: 1 << 10, Framing: LengthPrefixed(), StreamBatch: 29}
	paths := map[string]func() Parser{
		"raw":      func() Parser { return NewWKBParser() },
		"geometry": func() Parser { return geometryPath{WKBParser{}} },
	}
	for name, mk := range paths {
		for _, window := range []int{0, 3} {
			partitioner := func(hook func(phase, src int, part []byte)) func(c *mpi.Comm) *Partitioner {
				return func(c *mpi.Comm) *Partitioner {
					g, err := grid.New(world, 8, 8)
					if err != nil {
						panic(err)
					}
					return &Partitioner{Grid: g, WindowCells: window, DirectGrid: true, FrameFault: hook}
				}
			}
			chunked := readExchangeOutcomes(t, pf, mk, opt, partitioner(nil))
			joined := readExchangeOutcomes(t, pf, mk, opt, partitioner(func(int, int, []byte) {}))
			for r := range chunked {
				if chunked[r].err != "" || chunked[r].ex.GeomsRecv == 0 {
					t.Fatalf("%s window=%d rank %d: err %q, %d geometries received", name, window, r, chunked[r].err, chunked[r].ex.GeomsRecv)
				}
				if !reflect.DeepEqual(chunked[r], joined[r]) {
					t.Errorf("%s window=%d rank %d: chunked self block differs from joined:\n chunked %+v %v\n joined  %+v %v",
						name, window, r, chunked[r].ex, chunked[r].clock, joined[r].ex, joined[r].clock)
				}
			}
		}
	}
}

// TestDecodePartChunks: a part handed to the decoder as a chunk list (the
// own stage) gives up exactly what its concatenation would under
// SkipBadFrames — a forged length surrenders the rest of the part, later
// chunks included; a bad payload under a plausible length costs one frame.
func TestDecodePartChunks(t *testing.T) {
	frames := func() [][]byte {
		var s frameStage
		for i := 0; i < 200; i++ {
			p := geom.Point{X: float64(i), Y: -float64(i)}
			wkb.Append(s.frame(i%5, wkb.Size(p))[:0], p)
		}
		return s.chunks
	}
	if n := len(frames()); n != 3 {
		t.Fatalf("fixture staged %d chunks, want 3", n)
	}
	frameLen := exchangeHeader + wkb.Size(geom.Point{})
	forge := map[string]func(ch []byte){
		"huge length": func(ch []byte) { binary.LittleEndian.PutUint32(ch[4:], 0xfffffff0) },
		"bad payload": func(ch []byte) { ch[exchangeHeader] = 7 }, // byte-order marker
	}
	decode := func(chunks [][]byte) (cells map[int][]geom.Geometry, stats ExchangeStats, clock float64) {
		err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
			ex := &Exchanger{c: c, mapping: func(cell, size int) int { return 0 }, size: 1, scale: 1, skipBad: true}
			cells = make(map[int][]geom.Geometry)
			var dec wkb.Parser
			err := ex.decodePart(&dec, chunks, cells)
			stats, clock = ex.stats, c.Now()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells, stats, clock
	}
	for name, f := range forge {
		for k := 0; k < 3; k++ {
			for _, at := range []int{0, 2} { // first frame, third frame
				chunks := frames()
				f(chunks[k][at*frameLen:])
				total := 0
				for _, ch := range chunks {
					total += len(ch)
				}
				gotCells, got, gotClock := decode(chunks)
				wantCells, want, wantClock := decode([][]byte{bytes.Join(chunks, nil)})
				if got != want || gotClock != wantClock || !reflect.DeepEqual(gotCells, wantCells) {
					t.Errorf("%s in chunk %d frame %d: chunked %+v, contiguous %+v", name, k, at, got, want)
				}
				if got.FramesQuarantined != 1 {
					t.Errorf("%s in chunk %d frame %d: %d frames quarantined", name, k, at, got.FramesQuarantined)
				}
				if name == "huge length" && k == 0 && at == 0 && got.BytesQuarantined != int64(total) {
					t.Errorf("forged length at the front gave up %d of %d bytes", got.BytesQuarantined, total)
				}
			}
		}
	}
}

// TestReadExchangeAllocBudget is the receive half's allocation budget: the
// raw path over a datagen lakes WKB file on 2 ranks allocates at most 3.3
// bytes per input byte — the stage, one receive buffer for the remote
// block, the decoded coordinates and bookkeeping. A gather before the
// payload round, or an own-block receive buffer, costs about one more.
func TestReadExchangeAllocBudget(t *testing.T) {
	const scale = 1024
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := datagen.GenerateFileEncoded(datagen.Lakes(), scale, datagen.EncodingWKB, fs, "lakes.wkb", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
			g, err := grid.New(geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, 16, 16)
			if err != nil {
				return err
			}
			opt := ReadOptions{BlockSize: 256e6 / scale, Framing: LengthPrefixed()}
			_, _, _, err = ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKBParser(), opt, &Partitioner{Grid: g, DirectGrid: true})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(pf.Size())
	t.Logf("%.2f B allocated per input byte (%d-byte file)", perByte, pf.Size())
	if perByte > 3.3 {
		t.Errorf("ReadExchange allocated %.2f B per input byte, budget 3.3", perByte)
	}
}
