package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/wkt"
)

// makeWKTFile writes records to a fresh Lustre file and returns it with the
// expected record texts.
func makeWKTFile(t *testing.T, records []string) *pfs.File {
	t.Helper()
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("data.wkt", 8, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		f.Append([]byte(r))
		f.Append([]byte{'\n'})
	}
	return f
}

// genRecords builds n deterministic WKT records of varying size.
func genRecords(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		switch r.Intn(3) {
		case 0:
			out[i] = fmt.Sprintf("POINT (%d %d)", r.Intn(1000), r.Intn(1000))
		case 1:
			verts := 2 + r.Intn(20)
			s := "LINESTRING ("
			for v := 0; v < verts; v++ {
				if v > 0 {
					s += ", "
				}
				s += fmt.Sprintf("%d %d", r.Intn(1000), r.Intn(1000))
			}
			out[i] = s + ")"
		default:
			// Closed ring with 3..40 distinct vertices.
			verts := 3 + r.Intn(38)
			x, y := r.Intn(900), r.Intn(900)
			s := fmt.Sprintf("POLYGON ((%d %d", x, y)
			for v := 1; v < verts; v++ {
				s += fmt.Sprintf(", %d %d", x+r.Intn(100), y+r.Intn(100))
			}
			s += fmt.Sprintf(", %d %d))", x, y)
			out[i] = s
		}
	}
	return out
}

// collectAll runs ReadPartition on n ranks and returns the union of all
// ranks' geometries as sorted WKT strings.
func collectAll(t *testing.T, pf *pfs.File, ranks int, opt ReadOptions) []string {
	t.Helper()
	var mu sync.Mutex
	var all []string
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, _, err := ReadPartition(c, f, WKTParser{}, opt)
		if err != nil {
			return err
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

// sequentialOracle parses the same records sequentially.
func sequentialOracle(t *testing.T, records []string) []string {
	t.Helper()
	out := make([]string, 0, len(records))
	for _, r := range records {
		g, err := wkt.ParseString(r)
		if err != nil {
			t.Fatalf("oracle parse: %v", err)
		}
		out = append(out, wkt.Format(g))
	}
	sort.Strings(out)
	return out
}

func assertSame(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

func TestReadPartitionSingleRank(t *testing.T) {
	records := genRecords(100, 1)
	pf := makeWKTFile(t, records)
	got := collectAll(t, pf, 1, ReadOptions{})
	assertSame(t, got, sequentialOracle(t, records), "single rank")
}

func TestReadPartitionMessageStrategy(t *testing.T) {
	records := genRecords(500, 2)
	pf := makeWKTFile(t, records)
	want := sequentialOracle(t, records)
	for _, ranks := range []int{2, 3, 4, 8} {
		for _, block := range []int64{0, 1 << 10, 4 << 10} {
			label := fmt.Sprintf("message ranks=%d block=%d", ranks, block)
			got := collectAll(t, pf, ranks, ReadOptions{BlockSize: block, Strategy: MessageBased})
			assertSame(t, got, want, label)
		}
	}
}

func TestReadPartitionOverlapStrategy(t *testing.T) {
	records := genRecords(500, 3)
	pf := makeWKTFile(t, records)
	want := sequentialOracle(t, records)
	for _, ranks := range []int{2, 3, 5, 8} {
		for _, block := range []int64{0, 2 << 10} {
			label := fmt.Sprintf("overlap ranks=%d block=%d", ranks, block)
			got := collectAll(t, pf, ranks, ReadOptions{
				BlockSize: block, Strategy: Overlap, MaxGeomSize: 2 << 10,
			})
			assertSame(t, got, want, label)
		}
	}
}

func TestReadPartitionCollectiveLevel(t *testing.T) {
	records := genRecords(300, 4)
	pf := makeWKTFile(t, records)
	want := sequentialOracle(t, records)
	got := collectAll(t, pf, 4, ReadOptions{BlockSize: 2 << 10, Level: Level1})
	assertSame(t, got, want, "level1 message")
	got = collectAll(t, pf, 4, ReadOptions{BlockSize: 2 << 10, Level: Level1, Strategy: Overlap, MaxGeomSize: 2 << 10})
	assertSame(t, got, want, "level1 overlap")
}

func TestReadPartitionMoreRanksThanData(t *testing.T) {
	records := genRecords(3, 5)
	pf := makeWKTFile(t, records)
	want := sequentialOracle(t, records)
	got := collectAll(t, pf, 8, ReadOptions{BlockSize: 16})
	assertSame(t, got, want, "ranks>records")
}

func TestReadPartitionNoTrailingNewline(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("raw.wkt", 4, 1<<10)
	pf.Write([]byte("POINT (1 2)\nPOINT (3 4)\nPOINT (5 6)")) // no final newline
	got := collectAll(t, pf, 3, ReadOptions{BlockSize: 8})
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3: %v", len(got), got)
	}
}

func TestReadPartitionEmptyFile(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("empty.wkt", 1, 1<<10)
	got := collectAll(t, pf, 4, ReadOptions{})
	if len(got) != 0 {
		t.Fatalf("empty file yielded %v", got)
	}
}

func TestReadPartitionBlankLinesAndErrors(t *testing.T) {
	fs, _ := pfs.New(pfs.CometLustre())
	pf, _ := fs.Create("messy.wkt", 2, 1<<10)
	pf.Write([]byte("POINT (1 2)\n\n  \nGARBAGE RECORD\nPOINT (3 4)\n"))

	// Without SkipErrors the garbage fails the read.
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, WKTParser{}, ReadOptions{})
		if err == nil {
			return fmt.Errorf("garbage record accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// With SkipErrors it is counted and skipped.
	var mu sync.Mutex
	records, errs := 0, 0
	err = mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, stats, err := ReadPartition(c, f, WKTParser{}, ReadOptions{SkipErrors: true})
		if err != nil {
			return err
		}
		mu.Lock()
		records += len(geoms)
		errs += stats.Errors
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != 2 || errs != 1 {
		t.Errorf("records=%d errs=%d, want 2 and 1", records, errs)
	}
}

func TestReadPartitionGiantRecordSpanningBlocks(t *testing.T) {
	// One record far larger than a block — it spans many blocks and whole
	// iterations. The generalized message strategy relays the fragments
	// through intermediate ranks until the terminating delimiter is met,
	// so the record is reconstructed exactly.
	big := "LINESTRING (0 0"
	for i := 1; i < 300; i++ {
		big += fmt.Sprintf(", %d %d", i, i%17)
	}
	big += ")"
	if len(big) < 2000 {
		t.Fatalf("test record too small: %d bytes", len(big))
	}
	records := []string{"POINT (9 9)", big, "POINT (1 1)"}
	pf := makeWKTFile(t, records)
	want := sequentialOracle(t, records)
	for _, ranks := range []int{2, 3, 5} {
		got := collectAll(t, pf, ranks, ReadOptions{BlockSize: 64})
		assertSame(t, got, want, fmt.Sprintf("giant record ranks=%d", ranks))
	}
}

func TestReadPartitionOverlapHaloTooSmall(t *testing.T) {
	records := []string{
		"POINT (1 1)",
		genRecords(1, 11)[0], // something long
		"LINESTRING (0 0, 1 1, 2 2, 3 3, 4 4, 5 5, 6 6, 7 7, 8 8, 9 9)",
		"POINT (2 2)",
	}
	pf := makeWKTFile(t, records)
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, _, err := ReadPartition(c, f, WKTParser{}, ReadOptions{
			BlockSize: 16, Strategy: Overlap, MaxGeomSize: 4,
		})
		return err
	})
	if !errors.Is(err, ErrGeometryTooLarge) {
		t.Errorf("err = %v, want ErrGeometryTooLarge", err)
	}
}

// TestReadStatspopulated checks the counters, and that a read's parts add
// up to its whole: the ledger delta a read reports sums to the call's
// elapsed virtual time within 1e-12 relative — the boundary repair and the
// closing error-agreement Allreduce included — for both strategies and
// both access levels, on every rank, for a first read and for a second one
// whose ledger does not start at zero.
func TestReadStatspopulated(t *testing.T) {
	records := genRecords(200, 8)
	pf := makeWKTFile(t, records)
	for _, ranks := range []int{1, 2, 4} {
		for _, strategy := range []Strategy{MessageBased, Overlap} {
			for _, level := range []AccessLevel{Level0, Level1} {
				name := fmt.Sprintf("ranks=%d/%v/level=%d", ranks, strategy, level)
				t.Run(name, func(t *testing.T) {
					err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
						f := mpiio.Open(c, pf, mpiio.Hints{})
						for pass := 0; pass < 2; pass++ {
							start := c.Now()
							geoms, stats, err := ReadPartition(c, f, WKTParser{}, ReadOptions{BlockSize: 1 << 10, Strategy: strategy, Level: level})
							if err != nil {
								return err
							}
							if err := checkReadStats(c.Rank(), level, c.Now()-start, len(geoms), stats); err != nil {
								return fmt.Errorf("pass %d: %w", pass, err)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// checkReadStats is TestReadStatspopulated's per-rank check of one read
// that took elapsed virtual seconds and returned n geometries.
func checkReadStats(rank int, level AccessLevel, elapsed float64, n int, stats ReadStats) error {
	l := stats.Ledger
	switch {
	case stats.Records != n:
		return fmt.Errorf("stats.Records=%d len=%d", stats.Records, n)
	case stats.Iterations < 1:
		return fmt.Errorf("iterations = %d", stats.Iterations)
	case stats.BytesRead <= 0 && rank == 0:
		return fmt.Errorf("rank 0 read no bytes")
	case level == Level0 && stats.BytesRead > 0 && l[simtime.IO] <= 0:
		return fmt.Errorf("independent I/O happened but no IO charged: %#v", l)
	case level == Level1 && l[simtime.IO]+l[simtime.Wait] <= 0:
		return fmt.Errorf("collective read charged neither IO nor Wait: %#v", l)
	case stats.Records > 0 && l[simtime.Parse] <= 0:
		return fmt.Errorf("records parsed but no Parse charged: %#v", l)
	case l[simtime.Project]+l[simtime.Encode]+l[simtime.Decode]+l[simtime.Index]+l[simtime.Query] != 0:
		return fmt.Errorf("a read booked exchange, index or query time: %#v", l)
	case math.Abs(l.Sum()-elapsed) > 1e-12*elapsed:
		return fmt.Errorf("rank %d: read ledger sums to %v, the call took %v (%#v)", rank, l.Sum(), elapsed, l)
	}
	return nil
}

func TestOverlapReadsMoreBytesThanMessage(t *testing.T) {
	// The crux of Figure 10: overlap does redundant I/O.
	records := genRecords(400, 9)
	pf := makeWKTFile(t, records)
	bytesOf := func(strategy Strategy) int64 {
		var mu sync.Mutex
		var total int64
		err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pf, mpiio.Hints{})
			_, stats, err := ReadPartition(c, f, WKTParser{}, ReadOptions{
				BlockSize: 2 << 10, Strategy: strategy, MaxGeomSize: 1 << 10,
			})
			if err != nil {
				return err
			}
			mu.Lock()
			total += stats.BytesRead
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	msg := bytesOf(MessageBased)
	ovl := bytesOf(Overlap)
	if ovl <= msg {
		t.Errorf("overlap bytes (%d) should exceed message bytes (%d)", ovl, msg)
	}
	if msg != pf.Size() {
		t.Errorf("message strategy read %d bytes, want exactly file size %d", msg, pf.Size())
	}
}

// Property: for random record sets, rank counts, block sizes and
// strategies, the parallel read recovers exactly the sequential multiset.
func TestReadPartitionEquivalenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(99))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		records := genRecords(50+r.Intn(300), seed)
		pf := makeWKTFile(t, records)
		want := sequentialOracle(t, records)
		ranks := 1 + r.Intn(7)
		block := int64(512 + r.Intn(4096))
		strategy := MessageBased
		opt := ReadOptions{BlockSize: block, Strategy: strategy}
		if r.Intn(2) == 1 {
			opt.Strategy = Overlap
			opt.MaxGeomSize = 2 << 10
		}
		if r.Intn(2) == 1 {
			opt.Level = Level1
		}
		got := collectAll(t, pf, ranks, opt)
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
		t.Errorf("read equivalence property failed: %v", err)
	}
}

var _ = geom.Point{} // keep geom imported for helpers below

// TestReadMessageCopiesOnlyTheStraddler pins Algorithm 1's record assembly
// to the straddler: a rank copies the inbound prefix and its block up to
// the first boundary into the assembly buffer and parses the rest of the
// block in place. With blocks far larger than any record, the buffer stays
// within about twice the longest record (append's growth) instead of
// growing to a whole block. The relay case sends a record spanning more
// than three blocks through intermediate ranks; it is the longest
// straddler there.
func TestReadMessageCopiesOnlyTheStraddler(t *testing.T) {
	giant := "LINESTRING (0 0"
	for i := 1; len(giant) < 15<<10; i++ {
		giant += fmt.Sprintf(", %d %d", i, i%17)
	}
	giant += ")"
	records := genRecords(3000, 38)
	relay := append(append(genRecords(300, 39), giant), genRecords(300, 40)...)
	for _, tc := range []struct {
		name    string
		block   int64
		records []string
	}{
		{"short records", 64 << 10, records},
		{"relay", 4 << 10, relay},
	} {
		longest := 0
		for _, r := range tc.records {
			longest = max(longest, len(r)+1) // the delimiter is assembled too
		}
		limit := 5 * longest / 2
		pf := makeWKTFile(t, tc.records)
		want := sequentialOracle(t, tc.records)
		for ranks := 1; ranks <= 3; ranks++ {
			label := fmt.Sprintf("%s, %d ranks", tc.name, ranks)
			var mu sync.Mutex
			var got []string
			grown := make([]int, ranks)
			err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
				opt := ReadOptions{BlockSize: tc.block}
				l := newBlockLoop(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKTParser(), opt, opt.framing(), opt.BlockSize, output{})
				geoms, _, err := readMessage(l)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				for _, g := range geoms {
					got = append(got, wkt.Format(g))
				}
				grown[c.Rank()] = cap(l.ar.rec)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sort.Strings(got)
			assertSame(t, got, want, label)
			if slices.Max(grown) == 0 {
				t.Fatalf("%s: no rank assembled a record", label)
			}
			for r, n := range grown {
				if n > limit {
					t.Errorf("%s: rank %d's assembly buffer grew to %d bytes; the longest record is %d", label, r, n, longest)
				}
			}
		}
	}
}
