package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkt"
)

// skewedRecords builds WKT points with most of the mass clustered in the
// hot corner [0,hot)² of the [0,100)² world.
func skewedRecords(n int, hot float64, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		var x, y float64
		if r.Intn(10) < 8 {
			x, y = r.Float64()*hot, r.Float64()*hot
		} else {
			x, y = r.Float64()*100, r.Float64()*100
		}
		out[i] = fmt.Sprintf("POINT (%.4f %.4f)", x, y)
	}
	return out
}

// fingerprint renders an adaptive partition as a comparable string: every
// cell envelope in id order with its owning rank.
func fingerprint(a *grid.Adaptive, size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "env=%v n=%d;", a.Env(), a.NumCells())
	for i := 0; i < a.NumCells(); i++ {
		fmt.Fprintf(&b, "%d:%v@%d;", i, a.CellEnv(i), a.RankFor(i, size))
	}
	return b.String()
}

// samplePartitions runs SamplePartition on `ranks` ranks and returns every
// rank's partition fingerprint plus rank 0's partition.
func samplePartitions(t *testing.T, pf *pfs.File, ranks int, opt ReadOptions, popt PartitionOptions) ([]string, *grid.Adaptive) {
	t.Helper()
	prints := make([]string, ranks)
	var part *grid.Adaptive
	var mu sync.Mutex
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		p := Parser(WKTParser{})
		if opt.Framing != nil {
			p = NewWKBParser()
		}
		a, err := SamplePartition(c, f, p, opt, popt)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		prints[c.Rank()] = fingerprint(a, c.Size())
		if c.Rank() == 0 {
			part = a
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return prints, part
}

func TestSamplePartitionRankUniform(t *testing.T) {
	pf := makeWKTFile(t, skewedRecords(3000, 10, 11))
	popt := PartitionOptions{SampleBytes: 1 << 30, SampleStride: 4}
	for _, ranks := range []int{1, 2, 4, 8} {
		prints, part := samplePartitions(t, pf, ranks, ReadOptions{}, popt)
		for r := 1; r < ranks; r++ {
			if prints[r] != prints[0] {
				t.Fatalf("ranks=%d: rank %d built a different partition than rank 0", ranks, r)
			}
		}
		if part.NumCells() < ranks {
			t.Fatalf("ranks=%d: %d cells cannot cover every rank", ranks, part.NumCells())
		}
		owned := make(map[int]bool)
		for i := 0; i < part.NumCells(); i++ {
			owned[part.RankFor(i, ranks)] = true
		}
		if len(owned) != ranks {
			t.Errorf("ranks=%d: only %d ranks own cells", ranks, len(owned))
		}
	}
	// Determinism: a second independent run reproduces the partition bit
	// for bit.
	again, _ := samplePartitions(t, pf, 4, ReadOptions{}, popt)
	first, _ := samplePartitions(t, pf, 4, ReadOptions{}, popt)
	if again[0] != first[0] {
		t.Error("two runs over the same file disagree")
	}
}

func TestSamplePartitionSplitsHotCorner(t *testing.T) {
	pf := makeWKTFile(t, skewedRecords(4000, 10, 7))
	_, part := samplePartitions(t, pf, 4, ReadOptions{}, PartitionOptions{SampleBytes: 1 << 30, SampleStride: 2})
	var hotMin, coldMax float64
	hotMin = -1
	for i := 0; i < part.NumCells(); i++ {
		e := part.CellEnv(i)
		area := e.Width() * e.Height()
		if e.MinX < 10 && e.MinY < 10 {
			if hotMin < 0 || area < hotMin {
				hotMin = area
			}
		} else if area > coldMax {
			coldMax = area
		}
	}
	if hotMin < 0 || coldMax <= 0 {
		t.Fatal("partition has no hot or no cold cells")
	}
	if hotMin >= coldMax {
		t.Errorf("smallest hot cell (%v) not finer than the largest cold cell (%v)", hotMin, coldMax)
	}
}

func TestSamplePartitionEnvelopeOverride(t *testing.T) {
	pf := makeWKTFile(t, skewedRecords(500, 10, 3))
	world := geom.Envelope{MinX: -50, MinY: -50, MaxX: 150, MaxY: 150}
	_, part := samplePartitions(t, pf, 2, ReadOptions{}, PartitionOptions{
		Envelope: &world, SampleBytes: 1 << 30,
	})
	if part.Env() != world {
		t.Errorf("partition env %v, want the supplied %v", part.Env(), world)
	}
}

func TestSamplePartitionNoGeometries(t *testing.T) {
	pf := makeWKTFile(t, []string{"not wkt", "also not wkt", "nope"})
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, err := SamplePartition(c, f, WKTParser{}, ReadOptions{}, PartitionOptions{SampleBytes: 1 << 30, SampleStride: 1})
		if err == nil {
			return fmt.Errorf("no error from a geometry-free sample")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSamplePartitionLengthPrefixed(t *testing.T) {
	// A non-self-synchronizing framing routes the whole prefix through
	// rank 0; the reduced histogram must still be rank-identical.
	recs := skewedRecords(800, 10, 19)
	geoms := make([]geom.Geometry, len(recs))
	for i, r := range recs {
		g, err := wkt.ParseString(r)
		if err != nil {
			t.Fatal(err)
		}
		geoms[i] = g
	}
	pf := makeWKBFile(t, geoms)
	prints, part := samplePartitions(t, pf, 4, ReadOptions{Framing: LengthPrefixed()},
		PartitionOptions{SampleBytes: 1 << 30, SampleStride: 2})
	for r := 1; r < 4; r++ {
		if prints[r] != prints[0] {
			t.Fatalf("rank %d built a different partition than rank 0", r)
		}
	}
	if part.NumCells() < 4 {
		t.Errorf("%d cells for 4 ranks", part.NumCells())
	}
}

func TestSamplePartitionDrivesExchange(t *testing.T) {
	// End to end: the sampled partition drops into Partitioner.Grid, cells
	// land on the ranks the partition placed them on, and the exchanged
	// contents match a sequential oracle over the same partition.
	recs := skewedRecords(600, 10, 23)
	pf := makeWKTFile(t, recs)
	const ranks = 4
	_, part := samplePartitions(t, pf, ranks, ReadOptions{}, PartitionOptions{SampleBytes: 1 << 30, SampleStride: 2})

	var geoms []geom.Geometry
	for _, r := range recs {
		g, err := wkt.ParseString(r)
		if err != nil {
			t.Fatal(err)
		}
		geoms = append(geoms, g)
	}
	want := make(map[int][]string)
	for _, g := range geoms {
		for _, cell := range part.CellsFor(g.Envelope()) {
			want[cell] = append(want[cell], wkt.Format(g))
		}
	}
	for cell := range want {
		sort.Strings(want[cell])
	}

	got := make(map[int][]string)
	imb := make([]float64, ranks)
	var mu sync.Mutex
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: part}
		cells, stats, err := pt.Exchange(c, scatterGeoms(geoms, c.Rank(), c.Size()))
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for cell, gs := range cells {
			if owner := part.RankFor(cell, c.Size()); owner != c.Rank() {
				return fmt.Errorf("cell %d landed on rank %d, placed on %d", cell, c.Rank(), owner)
			}
			for _, gg := range gs {
				got[cell] = append(got[cell], wkt.Format(gg))
			}
		}
		imb[c.Rank()] = stats.ByteImbalance
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for cell := range got {
		sort.Strings(got[cell])
	}
	if len(got) != len(want) {
		t.Fatalf("%d populated cells, oracle has %d", len(got), len(want))
	}
	for cell, w := range want {
		g := got[cell]
		if len(g) != len(w) {
			t.Fatalf("cell %d: %d geometries, want %d", cell, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("cell %d geometry %d differs", cell, i)
			}
		}
	}
	for r := 1; r < ranks; r++ {
		if imb[r] != imb[0] {
			t.Errorf("rank %d reports byte imbalance %v, rank 0 %v", r, imb[r], imb[0])
		}
	}
	if imb[0] < 1 {
		t.Errorf("byte imbalance %v, want >= 1 after a real exchange", imb[0])
	}
}

// TestSkewAdaptiveBeatsUniform pins the placement-quality claim of
// SamplePartition on the extreme-skew preset: over the same file and read
// options, the sample-built adaptive partition lands a strictly lower
// max/mean per-rank exchange load — geometries and bytes — than the
// uniform 16x16 grid with round-robin ownership.
func TestSkewAdaptiveBeatsUniform(t *testing.T) {
	spec := datagen.Hotspot()
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	pf, _, err := datagen.GenerateFile(spec, spec.DefaultScale, fs, "hotspot.wkt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := ReadOptions{BlockSize: 64 << 10}
	world := geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	uniform, err := grid.New(world, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Denser than the defaults: the file is a few MB, so the default
	// prefix and 64-bin histogram see too little of the hotspots for the
	// quadtree to spread them.
	_, adaptive := samplePartitions(t, pf, 4, opt, PartitionOptions{
		Envelope:      &world,
		SampleBytes:   pf.Size() / 4,
		SampleStride:  4,
		HistogramSide: 256,
	})

	type outcome struct {
		records                      int
		bytesRead                    int64
		geomImbalance, byteImbalance float64
	}
	place := func(g grid.Partition) outcome {
		var mu sync.Mutex
		var out outcome
		err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
			pt := &Partitioner{Grid: g, DirectGrid: true}
			_, rstats, estats, err := ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), WKTParser{}, opt, pt)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			out.records += rstats.Records
			out.bytesRead += rstats.BytesRead
			if c.Rank() == 0 { // the imbalance factors are rank-identical
				out.geomImbalance, out.byteImbalance = estats.GeomImbalance, estats.ByteImbalance
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	uni, ada := place(uniform), place(adaptive)
	if uni.records == 0 || uni.records != ada.records || uni.bytesRead != ada.bytesRead {
		t.Fatalf("placements read different data: %d/%d records, %d/%d bytes",
			uni.records, ada.records, uni.bytesRead, ada.bytesRead)
	}
	if ada.byteImbalance >= uni.byteImbalance {
		t.Errorf("adaptive byte imbalance %.2f did not improve on uniform %.2f", ada.byteImbalance, uni.byteImbalance)
	}
	if ada.geomImbalance >= uni.geomImbalance {
		t.Errorf("adaptive geom imbalance %.2f did not improve on uniform %.2f", ada.geomImbalance, uni.geomImbalance)
	}
	t.Logf("byte imbalance %.2f -> %.2f, geom imbalance %.2f -> %.2f",
		uni.byteImbalance, ada.byteImbalance, uni.geomImbalance, ada.geomImbalance)
}
