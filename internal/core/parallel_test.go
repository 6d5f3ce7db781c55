package core

import (
	"fmt"
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

// The shipped text parser must be able to furnish per-worker clones.
var _ ParserCloner = WKTParser{}

// readPerRank runs ReadPartition and returns each rank's geometries as WKT
// strings in delivery order (no sorting — the parallel path promises the
// exact serial order, not just the multiset) plus each rank's stats.
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

// TestParseWorkersMatrix is the tentpole's determinism contract: for every
// framing × strategy × access level, ParseWorkers ∈ {1, 4} must produce
// rank-by-rank byte-identical geometries in identical order to the serial
// path (ParseWorkers = 0).
func TestParseWorkersMatrix(t *testing.T) {
	records := genRecords(600, 31)
	wktFile := makeWKTFile(t, records)
	wkbFile := makeWKBFile(t, genGeoms(t, 600, 31))

	type framingCase struct {
		name string
		pf   *pfs.File
		mk   func() Parser
		fr   Framing
	}
	cases := []framingCase{
		{"delimited", wktFile, func() Parser { return NewWKTParser() }, nil},
		{"length-prefixed", wkbFile, func() Parser { return NewWKBParser() }, LengthPrefixed()},
	}
	const ranks = 3
	for _, fc := range cases {
		for _, strat := range []Strategy{MessageBased, Overlap} {
			for _, level := range []AccessLevel{Level0, Level1} {
				opt := ReadOptions{
					BlockSize: 1 << 10, Strategy: strat, Level: level,
					MaxGeomSize: 2 << 10, Framing: fc.fr,
				}
				want, _ := readPerRank(t, fc.pf, ranks, fc.mk, opt)
				for _, workers := range []int{1, 4} {
					opt.ParseWorkers = workers
					label := fmt.Sprintf("%s %s level=%d workers=%d", fc.name, strat, level, workers)
					got, _ := readPerRank(t, fc.pf, ranks, fc.mk, opt)
					assertRanksIdentical(t, got, want, label)
				}
			}
		}
	}
}

// TestParseWorkersStatsMatchSerial: the virtual-time parse accounting is
// charged at batch join, but its totals must equal the serial path's —
// same Records, same Errors, same ParseTime (up to float summation order).
func TestParseWorkersStatsMatchSerial(t *testing.T) {
	records := genRecords(500, 32)
	pf := makeWKTFile(t, records)
	opt := ReadOptions{BlockSize: 1 << 10}
	_, serial := readPerRank(t, pf, 4, func() Parser { return NewWKTParser() }, opt)
	opt.ParseWorkers = 4
	_, par := readPerRank(t, pf, 4, func() Parser { return NewWKTParser() }, opt)
	for r := range serial {
		if par[r].Records != serial[r].Records || par[r].Errors != serial[r].Errors {
			t.Errorf("rank %d: records/errors %d/%d, serial %d/%d",
				r, par[r].Records, par[r].Errors, serial[r].Records, serial[r].Errors)
		}
		diff := par[r].ParseTime - serial[r].ParseTime
		if diff < 0 {
			diff = -diff
		}
		if tol := 1e-9 * (1 + serial[r].ParseTime); diff > tol {
			t.Errorf("rank %d: ParseTime %g, serial %g (diff %g)", r, par[r].ParseTime, serial[r].ParseTime, diff)
		}
		if par[r].BytesRead != serial[r].BytesRead || par[r].Iterations != serial[r].Iterations {
			t.Errorf("rank %d: bytes/iterations drifted from serial", r)
		}
	}
}

// TestParseWorkersGiantRecord: records spanning several blocks (and whole
// iterations) flow through fragment relay and stitched assembly; the
// parallel path must reproduce the serial order there too.
func TestParseWorkersGiantRecord(t *testing.T) {
	big := "LINESTRING (0 0"
	for i := 1; i < 300; i++ {
		big += fmt.Sprintf(", %d %d", i, i%17)
	}
	big += ")"
	records := []string{"POINT (9 9)", big, "POINT (1 1)"}
	pf := makeWKTFile(t, records)
	for _, ranks := range []int{2, 3, 5} {
		opt := ReadOptions{BlockSize: 64}
		want, _ := readPerRank(t, pf, ranks, func() Parser { return NewWKTParser() }, opt)
		opt.ParseWorkers = 4
		got, _ := readPerRank(t, pf, ranks, func() Parser { return NewWKTParser() }, opt)
		assertRanksIdentical(t, got, want, fmt.Sprintf("giant record ranks=%d", ranks))
	}
}

// TestParseWorkersErrorAgreement: a malformed record hit inside a worker
// must fail the collective read on every rank (error agreement runs on the
// rank goroutine), and under SkipErrors it must be counted exactly as the
// serial path counts it.
func TestParseWorkersErrorAgreement(t *testing.T) {
	records := genRecords(200, 33)
	records[137] = "POLYGON ((oops not wkt"
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("bad.wkt", 4, 1<<10)
	for _, r := range records {
		pf.Append([]byte(r))
		pf.Append([]byte{'\n'})
	}

	for _, workers := range []int{0, 4} {
		// Fatal path: every rank must see the failure — the failing rank
		// with the parse error, the others with ErrRemoteParse — and no
		// rank may hang or return success.
		var mu sync.Mutex
		failures := 0
		err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pf, mpiio.Hints{})
			_, _, err := ReadPartition(c, f, NewWKTParser(), ReadOptions{
				BlockSize: 512, ParseWorkers: workers,
			})
			if err == nil {
				return fmt.Errorf("rank %d: malformed record accepted", c.Rank())
			}
			mu.Lock()
			failures++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if failures != 3 {
			t.Fatalf("workers=%d: %d ranks failed, want all 3", workers, failures)
		}
	}

	// SkipErrors path: counts must match the serial path exactly.
	count := func(workers int) (records, errs int) {
		var mu sync.Mutex
		err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pf, mpiio.Hints{})
			gs, stats, err := ReadPartition(c, f, NewWKTParser(), ReadOptions{
				BlockSize: 512, ParseWorkers: workers, SkipErrors: true,
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
			t.Fatal(err)
		}
		return records, errs
	}
	sr, se := count(0)
	pr, pe := count(4)
	if sr != pr || se != pe {
		t.Errorf("skip-errors counts drifted: serial %d/%d, workers %d/%d", sr, se, pr, pe)
	}
	if se != 1 || sr != len(records)-1 {
		t.Errorf("serial baseline wrong: records=%d errs=%d", sr, se)
	}
}

// TestParseWorkersErrorMessageOrder: when several records are malformed,
// the error reported is the first in file order — batches merge in
// submission order, so a later error must not win the race.
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
		_, _, err := ReadPartition(c, f, NewWKTParser(), ReadOptions{
			BlockSize: 512, ParseWorkers: 4,
		})
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
// inside a length-prefixed record is data loss) survives the parallel path
// under both strategies.
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
				Framing: LengthPrefixed(), SkipErrors: true, ParseWorkers: 3,
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

// TestBinaryReadsStayOnTheRank: ParseWorkers and Strategy are text knobs.
// Over length-prefixed records — ReadPartition, ReadStream and
// ReadExchange's raw path — 4 workers change nothing against 0, and Overlap
// changes nothing against MessageBased: the geometries (stream batch
// boundaries included) or cells and their order, ReadStats (BytesRead
// included), ExchangeStats, the error text, the final virtual clock, and
// the goroutines alive while the read runs, sampled from the file's read
// hook and from ReadStream's sink. The clean file runs strict; a file
// ending inside a record runs strict and under SkipErrors, so its leftover
// is settled by the EOF rule.
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

	// peak is the most goroutines seen alive during one run.
	var peak atomic.Int64
	sample := func() {
		n := int64(runtime.NumGoroutine())
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
	}
	fs.InjectReadFault(func(string, int64, int, int) pfs.ReadFault {
		sample()
		return pfs.ReadFault{}
	})
	defer fs.InjectReadFault(nil)
	// Goroutines of an earlier run may still be exiting after mpi.Run
	// returns; waitIdle gives them up to a second, so each run's peak is
	// measured above the same idle count.
	idle := runtime.NumGoroutine()
	waitIdle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 1000 && n > idle; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}

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
	run := func(pf *pfs.File, api string, opt ReadOptions) ([]outcome, int64) {
		const ranks = 3
		out := make([]outcome, ranks)
		start := waitIdle()
		peak.Store(int64(start))
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
					sample()
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
		return out, peak.Load() - int64(start)
	}

	inputs := []struct {
		name string
		pf   *pfs.File
		skip bool
	}{{"clean", clean, false}, {"truncated strict", trunc, false}, {"truncated skip", trunc, true}}
	ref := make(map[string][]outcome) // the {MessageBased, 0 workers} run of each input and API
	for _, in := range inputs {
		for _, strat := range []Strategy{MessageBased, Overlap} {
			for _, api := range []string{"ReadPartition", "ReadStream", "ReadExchange"} {
				opt := ReadOptions{BlockSize: 1 << 10, Strategy: strat, MaxGeomSize: 2 << 10,
					Framing: LengthPrefixed(), SkipErrors: in.skip, StreamBatch: 29}
				label := fmt.Sprintf("%s %s %s", in.name, strat, api)
				want, wantExtra := run(in.pf, api, opt)
				if strat == MessageBased {
					ref[in.name+api] = want
				}
				opt.ParseWorkers = 4
				got, gotExtra := run(in.pf, api, opt)
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Errorf("%s: rank %d with 4 workers differs from 0:\n 4 %+v %+v %q %v\n 0 %+v %+v %q %v",
							label, r, got[r].read, got[r].ex, got[r].err, got[r].clock, want[r].read, want[r].ex, want[r].err, want[r].clock)
					}
					if m := ref[in.name+api][r]; !reflect.DeepEqual(want[r], m) {
						t.Errorf("%s: rank %d differs from the message-based read:\n %s %+v %+v %q %v\n message %+v %+v %q %v",
							label, r, strat, want[r].read, want[r].ex, want[r].err, want[r].clock, m.read, m.ex, m.err, m.clock)
					}
				}
				if gotExtra != wantExtra {
					t.Errorf("%s: %d goroutines above idle during the read with 4 workers, %d with 0", label, gotExtra, wantExtra)
				}
				records, errs, failed := 0, 0, 0
				for _, o := range want {
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
						wantFailed = len(want)
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

// TestSplitRegion pins the batch-splitting helper: cuts land on record
// boundaries at or past the target, never inside a record.
func TestSplitRegion(t *testing.T) {
	d := Delimited('\n')
	data := []byte("aa\nbbbb\ncc\ndddd\n")
	for target, want := range map[int]int{0: 3, 1: 3, 3: 8, 4: 8, 9: 11, 15: 16, 16: 16, 99: 16} {
		if got := splitRegion(d, data, target); got != want {
			t.Errorf("delimited splitRegion(target=%d) = %d, want %d", target, got, want)
		}
	}
	// Unterminated tail stays attached to the final chunk.
	if got := splitRegion(d, []byte("aa\nbb"), 4); got != 5 {
		t.Errorf("delimited unterminated tail: got %d, want 5", got)
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
