package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// readPerRank runs ReadPartition and returns each rank's geometries as WKT
// strings in delivery order (no sorting — a read promises file order within
// each rank, not just the multiset) plus each rank's stats.
func readPerRank(t *testing.T, pf *pfs.File, ranks int, mk func() Parser, opt ReadOptions) ([][]string, []ReadStats) {
	t.Helper()
	var mu sync.Mutex
	out := make([][]string, ranks)
	sts := make([]ReadStats, ranks)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, stats, err := ReadPartition(c, f, mk(), opt)
		if err != nil {
			return err
		}
		if stats.Records != len(geoms) {
			return fmt.Errorf("stats.Records=%d len(geoms)=%d", stats.Records, len(geoms))
		}
		recs := make([]string, len(geoms))
		for i, g := range geoms {
			recs[i] = wkt.Format(g)
		}
		mu.Lock()
		out[c.Rank()] = recs
		sts[c.Rank()] = stats
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, sts
}

func assertRanksIdentical(t *testing.T, got, want [][]string, label string) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: rank %d has %d records, want %d", label, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("%s: rank %d record %d differs:\n got %s\nwant %s", label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestParseWorkersGiantRecord: a record spanning several blocks (and whole
// iterations) flows through fragment relay and stitched assembly. Each
// rank's geometries must be the file's records in file order, and every
// record must land on exactly one rank.
func TestParseWorkersGiantRecord(t *testing.T) {
	big := "LINESTRING (0 0"
	for i := 1; i < 300; i++ {
		big += fmt.Sprintf(", %d %d", i, i%17)
	}
	big += ")"
	records := []string{"POINT (9 9)", big, "POINT (1 1)"}
	pf := makeWKTFile(t, records)
	index := make(map[string]int, len(records)) // canonical WKT → file position
	for i, r := range records {
		g, err := wkt.ParseString(r)
		if err != nil {
			t.Fatal(err)
		}
		index[wkt.Format(g)] = i
	}
	for _, ranks := range []int{2, 3, 5} {
		got, _ := readPerRank(t, pf, ranks, func() Parser { return NewWKTParser() }, ReadOptions{BlockSize: 64})
		seen := make([]int, len(records))
		for r, recs := range got {
			last := -1
			for _, rec := range recs {
				i, ok := index[rec]
				if !ok {
					t.Fatalf("ranks=%d: rank %d returned a record not in the file: %.40s", ranks, r, rec)
				}
				if i <= last {
					t.Errorf("ranks=%d: rank %d returned record %d after record %d", ranks, r, i, last)
				}
				last = i
				seen[i]++
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("ranks=%d: record %d returned %d times, want once", ranks, i, n)
			}
		}
	}
}

// TestParseWorkersErrorAgreement: a malformed record must fail the
// collective read on every rank (the failing rank with the parse error, the
// others with ErrRemoteParse), and under SkipErrors it must be counted once
// while every other record is kept.
func TestParseWorkersErrorAgreement(t *testing.T) {
	records := genRecords(200, 33)
	records[137] = "POLYGON ((oops not wkt"
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("bad.wkt", 4, 1<<10)
	for _, r := range records {
		pf.Append([]byte(r))
		pf.Append([]byte{'\n'})
	}

	// Fatal path: every rank must see the failure, and no rank may hang or
	// return success.
	var mu sync.Mutex
	failures := 0
	err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, NewWKTParser(), ReadOptions{BlockSize: 512})
		if err == nil {
			return fmt.Errorf("rank %d: malformed record accepted", c.Rank())
		}
		mu.Lock()
		failures++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 3 {
		t.Fatalf("%d ranks failed, want all 3", failures)
	}

	// SkipErrors path: one error counted, every other record kept.
	kept, errs := 0, 0
	err = mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		gs, stats, err := ReadPartition(c, f, NewWKTParser(), ReadOptions{BlockSize: 512, SkipErrors: true})
		if err != nil {
			return err
		}
		mu.Lock()
		kept += len(gs)
		errs += stats.Errors
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs != 1 || kept != len(records)-1 {
		t.Errorf("skip-errors: records=%d errs=%d, want %d and 1", kept, errs, len(records)-1)
	}
}

// TestParseWorkersErrorMessageOrder: when several records are malformed,
// the error reported is the first in file order.
func TestParseWorkersErrorMessageOrder(t *testing.T) {
	records := genRecords(300, 34)
	records[50] = "FIRSTGARBAGE ((1"
	records[250] = "SECONDGARBAGE ((2"
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("bad2.wkt", 4, 1<<10)
	for _, r := range records {
		pf.Append([]byte(r))
		pf.Append([]byte{'\n'})
	}
	err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, NewWKTParser(), ReadOptions{BlockSize: 512})
		if err == nil {
			return fmt.Errorf("malformed records accepted")
		}
		if !strings.Contains(err.Error(), "FIRSTGARBAGE") {
			return fmt.Errorf("first-in-file error lost: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseWorkersTruncatedWKB: the binary truncation rule (a file ending
// inside a length-prefixed record is data loss) holds on 3 ranks under both
// strategies.
func TestParseWorkersTruncatedWKB(t *testing.T) {
	geoms := genGeoms(t, 40, 35)
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("trunc-par.wkb", 4, 1<<10)
	var buf []byte
	for _, g := range geoms {
		buf = wkb.AppendFramed(buf[:0], g)
		pf.Append(buf)
	}
	pf.Append([]byte{200, 1, 0, 0, 1, 2, 3})
	for _, strat := range []Strategy{MessageBased, Overlap} {
		var mu sync.Mutex
		records, errs := 0, 0
		err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pf, mpiio.Hints{})
			gs, stats, err := ReadPartition(c, f, NewWKBParser(), ReadOptions{
				BlockSize: 512, Strategy: strat, MaxGeomSize: 2 << 10,
				Framing: LengthPrefixed(), SkipErrors: true,
			})
			if err != nil {
				return err
			}
			mu.Lock()
			records += len(gs)
			errs += stats.Errors
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if records != len(geoms) || errs != 1 {
			t.Errorf("%s: records=%d errs=%d, want %d and 1", strat, records, errs, len(geoms))
		}
	}
}

// goroutinePeak records the most goroutines seen alive during one run,
// measured above the count the run began with.
type goroutinePeak struct {
	idle  int // goroutines alive when the test began
	start int
	peak  atomic.Int64
}

func newGoroutinePeak() *goroutinePeak {
	return &goroutinePeak{idle: runtime.NumGoroutine()}
}

// sample records the goroutines alive now. It is safe from any goroutine.
func (g *goroutinePeak) sample() {
	n := int64(runtime.NumGoroutine())
	for old := g.peak.Load(); n > old && !g.peak.CompareAndSwap(old, n); old = g.peak.Load() {
	}
}

// begin starts a run. Goroutines of an earlier run may still be exiting
// after mpi.Run returns; begin gives them up to a second, so each run's
// peak is measured above the same idle count.
func (g *goroutinePeak) begin() {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > g.idle; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	g.start = n
	g.peak.Store(int64(n))
}

// extra returns the run's peak above its starting count.
func (g *goroutinePeak) extra() int { return int(g.peak.Load()) - g.start }

// TestReadsStartNoGoroutine: a read runs on its rank's goroutine and starts
// none of its own. For both framings and each read API on 3 ranks, the most
// goroutines alive during the read — sampled from the file's read hook and
// from ReadStream's sink — must equal the peak of a bare mpi.Run on 3 ranks
// whose ranks only sample between two Barriers.
func TestReadsStartNoGoroutine(t *testing.T) {
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	records := genRecords(300, 54)
	wktFile, err := fs.Create("data.wkt", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		wktFile.Append([]byte(r + "\n"))
	}
	wkbFile, err := fs.Create("data.wkb", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, g := range genGeoms(t, 300, 54) {
		buf = wkb.AppendFramed(buf[:0], g)
		wkbFile.Append(buf)
	}

	probe := newGoroutinePeak()
	fs.InjectReadFault(func(string, int64, int, int) pfs.ReadFault {
		probe.sample()
		return pfs.ReadFault{}
	})
	defer fs.InjectReadFault(nil)

	const ranks = 3
	probe.begin()
	err = mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		// Between the barriers every rank is alive, so each sample sees them all.
		if err := c.Barrier(); err != nil {
			return err
		}
		probe.sample()
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	base := probe.extra()
	if base < ranks {
		t.Fatalf("baseline peak is %d goroutines above idle, fewer than its %d ranks", base, ranks)
	}

	cases := []struct {
		name string
		pf   *pfs.File
		mk   func() Parser
		fr   Framing
	}{
		{"delimited", wktFile, func() Parser { return NewWKTParser() }, nil},
		{"length-prefixed", wkbFile, func() Parser { return NewWKBParser() }, LengthPrefixed()},
	}
	for _, fc := range cases {
		for _, api := range []string{"ReadPartition", "ReadStream", "ReadExchange"} {
			opt := ReadOptions{BlockSize: 1 << 10, Framing: fc.fr, StreamBatch: 29}
			probe.begin()
			err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
				f := mpiio.Open(c, fc.pf, mpiio.Hints{})
				var err error
				switch api {
				case "ReadPartition":
					_, _, err = ReadPartition(c, f, fc.mk(), opt)
				case "ReadStream":
					_, err = ReadStream(c, f, fc.mk(), opt, func([]geom.Geometry) error {
						probe.sample()
						return nil
					})
				case "ReadExchange":
					g, gerr := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 8, 8)
					if gerr != nil {
						return gerr
					}
					_, _, _, err = ReadExchange(c, f, fc.mk(), opt, &Partitioner{Grid: g, DirectGrid: true})
				}
				return err
			})
			if err != nil {
				t.Fatalf("%s %s: %v", fc.name, api, err)
			}
			if got := probe.extra(); got != base {
				t.Errorf("%s %s: %d goroutines above idle during the read, %d in a bare run", fc.name, api, got, base)
			}
		}
	}
}

// TestCoreStartsNoGoroutine: no non-test file of this package holds a go
// statement. A rank's Comm orders its fault points and clock charges, so
// only the rank goroutine may drive it; with no goroutine started here
// nothing else can. TestReadsStartNoGoroutine checks the same at run time,
// on the read paths it drives.
func TestCoreStartsNoGoroutine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement in internal/core; run the work on the rank goroutine", fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// TestBinaryReadsStayOnTheRank: Strategy is a text knob. Over
// length-prefixed records — ReadPartition, ReadStream and ReadExchange's
// raw path — Overlap changes nothing against MessageBased: the geometries
// (stream batch boundaries included) or cells and their order, ReadStats
// (BytesRead included), ExchangeStats, the error text and the final virtual
// clock. The clean file runs strict; a file ending inside a record runs
// strict and under SkipErrors, so its leftover is settled by the EOF rule.
func TestBinaryReadsStayOnTheRank(t *testing.T) {
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	geoms := genGeoms(t, 300, 53)
	write := func(name string, tail []byte) *pfs.File {
		f, err := fs.Create(name, 8, 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, g := range geoms {
			buf = wkb.AppendFramed(buf[:0], g)
			f.Append(buf)
		}
		f.Append(tail)
		return f
	}
	clean := write("clean.wkb", nil)
	trunc := write("trunc.wkb", []byte{200, 1, 0, 0, 1, 2, 3})

	type outcome struct {
		geoms []string // ReadPartition and ReadStream, as WKB; "batch" opens a ReadStream batch
		cells map[int][]string
		read  ReadStats
		ex    ExchangeStats
		err   string
		clock float64
	}
	encode := func(dst []string, gs []geom.Geometry) []string {
		for _, g := range gs {
			dst = append(dst, string(wkb.Encode(g)))
		}
		return dst
	}
	run := func(pf *pfs.File, api string, opt ReadOptions) []outcome {
		const ranks = 3
		out := make([]outcome, ranks)
		var mu sync.Mutex
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pf, mpiio.Hints{})
			var o outcome
			var err error
			switch api {
			case "ReadPartition":
				var gs []geom.Geometry
				gs, o.read, err = ReadPartition(c, f, NewWKBParser(), opt)
				o.geoms = encode(nil, gs)
			case "ReadStream":
				o.read, err = ReadStream(c, f, NewWKBParser(), opt, func(batch []geom.Geometry) error {
					o.geoms = encode(append(o.geoms, "batch"), batch)
					return nil
				})
			case "ReadExchange":
				g, gerr := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 8, 8)
				if gerr != nil {
					return gerr
				}
				var cells map[int][]geom.Geometry
				cells, o.read, o.ex, err = ReadExchange(c, f, NewWKBParser(), opt, &Partitioner{Grid: g, DirectGrid: true})
				o.cells = make(map[int][]string, len(cells))
				for cell, gs := range cells {
					o.cells[cell] = encode(nil, gs)
				}
			}
			if err != nil {
				o.err = err.Error()
			}
			o.clock = c.Now()
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

	inputs := []struct {
		name string
		pf   *pfs.File
		skip bool
	}{{"clean", clean, false}, {"truncated strict", trunc, false}, {"truncated skip", trunc, true}}
	ref := make(map[string][]outcome) // the MessageBased run of each input and API
	for _, in := range inputs {
		for _, strat := range []Strategy{MessageBased, Overlap} {
			for _, api := range []string{"ReadPartition", "ReadStream", "ReadExchange"} {
				opt := ReadOptions{BlockSize: 1 << 10, Strategy: strat, MaxGeomSize: 2 << 10,
					Framing: LengthPrefixed(), SkipErrors: in.skip, StreamBatch: 29}
				label := fmt.Sprintf("%s %s %s", in.name, strat, api)
				got := run(in.pf, api, opt)
				if strat == MessageBased {
					ref[in.name+api] = got
				}
				for r := range got {
					if m := ref[in.name+api][r]; !reflect.DeepEqual(got[r], m) {
						t.Errorf("%s: rank %d differs from the message-based read:\n %s %+v %+v %q %v\n message %+v %+v %q %v",
							label, r, strat, got[r].read, got[r].ex, got[r].err, got[r].clock, m.read, m.ex, m.err, m.clock)
					}
				}
				records, errs, failed := 0, 0, 0
				for _, o := range got {
					records += o.read.Records
					errs += o.read.Errors
					if o.err != "" {
						failed++
					}
				}
				wantErrs, wantFailed := 0, 0
				if in.pf == trunc {
					wantErrs = 1
					if !in.skip {
						wantFailed = len(got)
					}
				}
				if records != len(geoms) || errs != wantErrs || failed != wantFailed {
					t.Errorf("%s: %d records, %d errors, %d ranks failed; want %d, %d, %d",
						label, records, errs, failed, len(geoms), wantErrs, wantFailed)
				}
			}
		}
	}
}

// TestTruncRecordRuneBoundary: the fixed 60-byte cut must back off to a
// UTF-8 rune boundary instead of splitting a multi-byte rune (which would
// put an invalid string inside a parse-error message).
func TestTruncRecordRuneBoundary(t *testing.T) {
	// 59 ASCII bytes then a 3-byte rune straddling the 60-byte limit.
	rec := []byte(strings.Repeat("x", 59) + "€€€") // €
	got := truncRecord(rec)
	if !strings.HasSuffix(got, "...") {
		t.Fatalf("long record not truncated: %q", got)
	}
	if strings.ContainsRune(got, '�') || !strings.HasPrefix(got, strings.Repeat("x", 59)) {
		t.Errorf("rune split at cut: %q", got)
	}
	for _, r := range got {
		if r == '�' {
			t.Errorf("invalid UTF-8 in truncated record: %q", got)
		}
	}

	// A 2-byte rune exactly ending at the limit is kept whole.
	rec2 := []byte(strings.Repeat("y", 58) + "é" + strings.Repeat("z", 10)) // é at [58,60)
	got2 := truncRecord(rec2)
	if want := strings.Repeat("y", 58) + "é" + "..."; got2 != want {
		t.Errorf("boundary-aligned rune: got %q, want %q", got2, want)
	}

	// Short records pass through untouched.
	if got := truncRecord([]byte("POINT (1 2)")); got != "POINT (1 2)" {
		t.Errorf("short record altered: %q", got)
	}

	// Binary garbage (a run of continuation bytes) still cuts near the
	// limit instead of walking far backwards.
	bin := make([]byte, 100)
	for i := range bin {
		bin[i] = 0x80
	}
	if got := truncRecord(bin); len(got) != 60+3 {
		t.Errorf("binary garbage cut at %d bytes, want 63", len(got))
	}
}

var _ = geom.Point{}
