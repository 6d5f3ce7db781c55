package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// genGeoms reuses the deterministic WKT record generator and parses the
// records into geometries, so the WKB tests cover the same shape mix as the
// text tests.
func genGeoms(t *testing.T, n int, seed int64) []geom.Geometry {
	t.Helper()
	records := genRecords(n, seed)
	out := make([]geom.Geometry, 0, len(records))
	for _, r := range records {
		g, err := wkt.ParseString(r)
		if err != nil {
			t.Fatalf("fixture parse: %v", err)
		}
		out = append(out, g)
	}
	return out
}

// makeWKBFile writes the geometries as length-prefixed WKB records to a
// fresh Lustre file.
func makeWKBFile(t *testing.T, geoms []geom.Geometry) *pfs.File {
	t.Helper()
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("data.wkb", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, g := range geoms {
		buf = wkb.AppendFramed(buf[:0], g)
		f.Append(buf)
	}
	return f
}

// wkbOracle renders the expected multiset as sorted WKT strings.
func wkbOracle(geoms []geom.Geometry) []string {
	out := make([]string, 0, len(geoms))
	for _, g := range geoms {
		out = append(out, wkt.Format(g))
	}
	sort.Strings(out)
	return out
}

// collectAllWKB runs ReadPartition with the LengthPrefixed framing and a
// per-rank arena-backed WKB parser, returning the union of all ranks'
// geometries as sorted WKT strings.
func collectAllWKB(t *testing.T, pf *pfs.File, ranks int, opt ReadOptions) []string {
	t.Helper()
	opt.Framing = LengthPrefixed()
	var mu sync.Mutex
	var all []string
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, stats, err := ReadPartition(c, f, NewWKBParser(), opt)
		if err != nil {
			return err
		}
		if stats.Records != len(geoms) {
			return fmt.Errorf("stats.Records=%d len(geoms)=%d", stats.Records, len(geoms))
		}
		mu.Lock()
		for _, g := range geoms {
			all = append(all, wkt.Format(g))
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(all)
	return all
}

func TestReadPartitionWKBMessage(t *testing.T) {
	geoms := genGeoms(t, 400, 21)
	pf := makeWKBFile(t, geoms)
	want := wkbOracle(geoms)
	for _, ranks := range []int{1, 2, 3, 4, 8} {
		for _, block := range []int64{0, 256, 1 << 10, 4 << 10} {
			for _, level := range []AccessLevel{Level0, Level1} {
				label := fmt.Sprintf("wkb message ranks=%d block=%d level=%d", ranks, block, level)
				got := collectAllWKB(t, pf, ranks, ReadOptions{
					BlockSize: block, Strategy: MessageBased, Level: level,
				})
				assertSame(t, got, want, label)
			}
		}
	}
}

func TestReadPartitionWKBOverlap(t *testing.T) {
	geoms := genGeoms(t, 400, 22)
	pf := makeWKBFile(t, geoms)
	want := wkbOracle(geoms)
	for _, ranks := range []int{1, 2, 3, 5, 8} {
		for _, block := range []int64{0, 2 << 10} {
			for _, level := range []AccessLevel{Level0, Level1} {
				label := fmt.Sprintf("wkb overlap ranks=%d block=%d level=%d", ranks, block, level)
				got := collectAllWKB(t, pf, ranks, ReadOptions{
					BlockSize: block, Strategy: Overlap, Level: level, MaxGeomSize: 2 << 10,
				})
				assertSame(t, got, want, label)
			}
		}
	}
}

// TestReadPartitionWKBHeaderStraddle pins the hardest framing case: the
// 4-byte length header itself straddling a block boundary. Every record is
// a 5-vertex LINESTRING framed at exactly 93 bytes; with a 95-byte block,
// record j starts at offset 93j, so successive block boundaries land on
// every phase of the record — including inside the length header (e.g. the
// boundary at 95 splits the header spanning [93,97)).
func TestReadPartitionWKBHeaderStraddle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var geoms []geom.Geometry
	for i := 0; i < 200; i++ {
		pts := make([]geom.Point, 5)
		for j := range pts {
			pts[j] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		}
		geoms = append(geoms, &geom.LineString{Pts: pts})
	}
	if got := len(wkb.AppendFramed(nil, geoms[0])); got != 93 {
		t.Fatalf("fixture framed size = %d, want 93", got)
	}
	pf := makeWKBFile(t, geoms)
	want := wkbOracle(geoms)
	for _, ranks := range []int{2, 3, 4, 7} {
		for _, strat := range []Strategy{MessageBased, Overlap} {
			for _, level := range []AccessLevel{Level0, Level1} {
				label := fmt.Sprintf("wkb straddle ranks=%d strategy=%s level=%d", ranks, strat, level)
				got := collectAllWKB(t, pf, ranks, ReadOptions{
					BlockSize: 95, Strategy: strat, Level: level, MaxGeomSize: 128,
				})
				assertSame(t, got, want, label)
			}
		}
	}
}

// TestReadPartitionWKBGiantRecord: a record spanning several whole blocks
// (and iterations) is relayed through the chain until the rank holding its
// final byte assembles it.
func TestReadPartitionWKBGiantRecord(t *testing.T) {
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: float64(i % 17)}
	}
	geoms := []geom.Geometry{
		geom.Point{X: 9, Y: 9},
		&geom.LineString{Pts: pts}, // ~8 KB framed
		geom.Point{X: 1, Y: 1},
	}
	pf := makeWKBFile(t, geoms)
	want := wkbOracle(geoms)
	for _, ranks := range []int{2, 3, 5} {
		got := collectAllWKB(t, pf, ranks, ReadOptions{BlockSize: 64})
		assertSame(t, got, want, fmt.Sprintf("wkb giant record ranks=%d", ranks))
	}
}

func TestReadPartitionWKBTruncatedFile(t *testing.T) {
	geoms := genGeoms(t, 40, 24)
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("trunc.wkb", 4, 1<<10)
	var buf []byte
	for _, g := range geoms {
		buf = wkb.AppendFramed(buf[:0], g)
		pf.Append(buf)
	}
	pf.Append([]byte{200, 1, 0, 0, 1, 2, 3}) // header announcing more payload than the file holds

	for _, strat := range []Strategy{MessageBased, Overlap} {
		err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pf, mpiio.Hints{})
			_, _, err := ReadPartition(c, f, NewWKBParser(), ReadOptions{
				BlockSize: 512, Strategy: strat, MaxGeomSize: 2 << 10, Framing: LengthPrefixed(),
			})
			if err == nil {
				return fmt.Errorf("truncated file accepted")
			}
			if !errors.Is(err, ErrTruncatedRecord) && !errors.Is(err, ErrRemoteParse) {
				return fmt.Errorf("err = %v, want ErrTruncatedRecord or ErrRemoteParse", err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}

		// With SkipErrors the truncated tail is counted, the rest recovered.
		var mu sync.Mutex
		records, errs := 0, 0
		err = mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
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
			t.Fatalf("%s skip-errors: %v", strat, err)
		}
		if records != len(geoms) || errs != 1 {
			t.Errorf("%s: records=%d errs=%d, want %d and 1", strat, records, errs, len(geoms))
		}
	}
}

func TestReadPartitionWKBBadPayloadSkipErrors(t *testing.T) {
	geoms := genGeoms(t, 30, 25)
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("bad.wkb", 4, 1<<10)
	var buf []byte
	for i, g := range geoms {
		buf = wkb.AppendFramed(buf[:0], g)
		pf.Append(buf)
		if i == 10 {
			pf.Append([]byte{3, 0, 0, 0, 9, 9, 9}) // well-framed record, garbage WKB payload
		}
	}
	var mu sync.Mutex
	records, errs := 0, 0
	err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		gs, stats, err := ReadPartition(c, f, NewWKBParser(), ReadOptions{
			BlockSize: 256, Framing: LengthPrefixed(), SkipErrors: true,
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
	if records != len(geoms) || errs != 1 {
		t.Errorf("records=%d errs=%d, want %d and 1", records, errs, len(geoms))
	}
}

// TestReadPartitionWKBOverlapHaloTooSmall: binary reads ignore the
// strategy and the halo, so a ~1.6 KB record under Overlap with a 64-byte
// MaxGeomSize reads like any other.
func TestReadPartitionWKBOverlapHaloTooSmall(t *testing.T) {
	geoms := genGeoms(t, 20, 26)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: float64(i)}
	}
	geoms = append(geoms, &geom.LineString{Pts: pts}) // ~1.6 KB framed
	pf := makeWKBFile(t, geoms)
	got := collectAllWKB(t, pf, 2, ReadOptions{BlockSize: 128, Strategy: Overlap, MaxGeomSize: 64})
	assertSame(t, got, wkbOracle(geoms), "wkb overlap with a 64-byte halo")
}

func TestReadPartitionWKBEmptyFile(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("empty.wkb", 1, 1<<10)
	got := collectAllWKB(t, pf, 4, ReadOptions{Framing: LengthPrefixed()})
	if len(got) != 0 {
		t.Fatalf("empty file yielded %v", got)
	}
}

// Property: for random geometry sets, rank counts, block sizes, strategies
// and access levels, the binary parallel read recovers exactly the
// sequential multiset.
func TestReadPartitionWKBEquivalenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(77))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		geoms := genGeoms(t, 30+r.Intn(200), seed)
		pf := makeWKBFile(t, geoms)
		want := wkbOracle(geoms)
		ranks := 1 + r.Intn(7)
		opt := ReadOptions{BlockSize: int64(64 + r.Intn(4096))}
		if r.Intn(2) == 1 {
			opt.Strategy = Overlap
			opt.MaxGeomSize = 4 << 10
		}
		if r.Intn(2) == 1 {
			opt.Level = Level1
		}
		got := collectAllWKB(t, pf, ranks, opt)
		if len(got) != len(want) {
			t.Logf("seed %d: got %d want %d (opt %+v ranks %d)", seed, len(got), len(want), opt, ranks)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: record %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("wkb read equivalence property failed: %v", err)
	}
}

// TestReadPartitionWKBZeroLengthRecord: a 00 00 00 00 header (empty
// payload) is never written by the encoder; it must surface as a malformed
// record — counted under SkipErrors, fatal otherwise — not vanish the way
// a blank text line legitimately does.
func TestReadPartitionWKBZeroLengthRecord(t *testing.T) {
	geoms := genGeoms(t, 10, 27)
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("zero.wkb", 4, 1<<10)
	var buf []byte
	for i, g := range geoms {
		buf = wkb.AppendFramed(buf[:0], g)
		pf.Append(buf)
		if i == 4 {
			pf.Append([]byte{0, 0, 0, 0}) // zero-length record
		}
	}
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, NewWKBParser(), ReadOptions{
			BlockSize: 256, Framing: LengthPrefixed(),
		})
		if err == nil {
			return fmt.Errorf("zero-length record accepted silently")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	records, errs := 0, 0
	err = mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		gs, stats, err := ReadPartition(c, f, NewWKBParser(), ReadOptions{
			BlockSize: 256, Framing: LengthPrefixed(), SkipErrors: true,
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
	if records != len(geoms) || errs != 1 {
		t.Errorf("records=%d errs=%d, want %d and 1", records, errs, len(geoms))
	}
}
