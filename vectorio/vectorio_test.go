package vectorio_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/vectorio"
)

// TestPublicAPIEndToEnd drives the whole public surface the way a
// downstream GIS application would: create a filesystem and file, read and
// partition WKT across ranks, size a grid with the MPI_UNION reduction,
// join two layers, and write grid-ordered output — all through the facade.
func TestPublicAPIEndToEnd(t *testing.T) {
	fs, err := vectorio.NewFS(vectorio.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	layerR, err := fs.Create("r.wkt", 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	layerS, err := fs.Create("s.wkt", 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// R: a 10x10 lattice of unit squares; S: points at some centers.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			layerR.Append([]byte(fmt.Sprintf(
				"POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d))\n",
				i, j, i+1, j, i+1, j+1, i, j+1, i, j)))
		}
	}
	for i := 0; i < 10; i += 2 {
		layerS.Append([]byte(fmt.Sprintf("POINT (%d.5 %d.5)\n", i, i)))
	}

	out, err := fs.Create("joined.wkt", 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	var pairs int64
	var outTotal int64
	var mu sync.Mutex
	err = vectorio.Run(vectorio.Local(4), func(c *vectorio.Comm) error {
		fR := vectorio.Open(c, layerR, vectorio.Hints{})
		fS := vectorio.Open(c, layerS, vectorio.Hints{})

		// Collective read of both layers.
		localR, _, err := vectorio.ReadPartition(c, fR, vectorio.WKTParser{}, vectorio.ReadOptions{})
		if err != nil {
			return err
		}
		localS, _, err := vectorio.ReadPartition(c, fS, vectorio.WKTParser{}, vectorio.ReadOptions{
			Level: vectorio.Level1,
		})
		if err != nil {
			return err
		}

		// Spatial reduction: the global envelope must cover the lattice.
		env, err := vectorio.GlobalEnvelope(c, vectorio.LocalEnvelope(localR))
		if err != nil {
			return err
		}
		if env.MinX > 0 || env.MaxX < 10 {
			return fmt.Errorf("global envelope %v does not cover the lattice", env)
		}

		// Distributed join: each S point hits exactly the 1-4 squares
		// containing it; centers hit exactly one.
		bd, err := vectorio.Join(c, localR, localS, vectorio.JoinOptions{GridCells: 16})
		if err != nil {
			return err
		}
		agg, err := bd.Aggregate(c)
		if err != nil {
			return err
		}

		// Grid-partition R and write it back in grid order.
		g, err := vectorio.NewGrid(env, 4, 4)
		if err != nil {
			return err
		}
		pt := &vectorio.Partitioner{Grid: g}
		owned, _, err := pt.Exchange(c, localR)
		if err != nil {
			return err
		}
		fOut := vectorio.Open(c, out, vectorio.Hints{})
		total, err := vectorio.WriteCells(c, fOut, g, owned)
		if err != nil {
			return err
		}
		mu.Lock()
		if c.Rank() == 0 {
			pairs = agg.Pairs
			outTotal = total
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if pairs != 5 {
		t.Errorf("join found %d pairs, want 5 (one square per point)", pairs)
	}
	if outTotal != out.Size() {
		t.Errorf("WriteCells reported %d bytes, file has %d", outTotal, out.Size())
	}
	// The output must contain every lattice square at least once
	// (boundary-spanning squares are replicated into multiple cells).
	data := make([]byte, out.Size())
	if _, err := out.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "POLYGON")
	if lines < 100 {
		t.Errorf("output holds %d polygons, want >= 100", lines)
	}
}

// TestDatasetPresetsExposed sanity-checks the six Table 3 presets through
// the facade.
func TestDatasetPresetsExposed(t *testing.T) {
	specs := vectorio.AllDatasets()
	if len(specs) != 6 {
		t.Fatalf("%d presets, want 6", len(specs))
	}
	var sb strings.Builder
	stats, err := vectorio.Generate(vectorio.Cemetery(), 4096, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 || !strings.Contains(sb.String(), "POLYGON") {
		t.Error("cemetery preset generated no polygons")
	}
}

// TestPublicAPIBinaryIngest drives the binary fast path through the facade:
// generate a WKB dataset, read it with the LengthPrefixed framing and a
// per-rank WKBParser, and check the multiset against the WKT twin of the
// same spec.
func TestPublicAPIBinaryIngest(t *testing.T) {
	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	spec := vectorio.Cemetery()
	const scale = 2048
	bin, binStats, err := vectorio.GenerateFileEncoded(spec, scale, vectorio.EncodingWKB, fs, "cem.wkb", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if binStats.Records == 0 {
		t.Fatal("empty binary dataset")
	}

	var mu sync.Mutex
	records := 0
	err = vectorio.Run(vectorio.Local(4), func(c *vectorio.Comm) error {
		f := vectorio.Open(c, bin, vectorio.Hints{})
		p := vectorio.NewWKBParser()
		geoms, stats, err := vectorio.ReadPartition(c, f, p, vectorio.ReadOptions{
			BlockSize: 4 << 10,
			Framing:   vectorio.LengthPrefixed(),
		})
		if err != nil {
			return err
		}
		for _, g := range geoms {
			if g.NumPoints() < 4 { // closed polygon rings
				return fmt.Errorf("implausible geometry: %d vertices", g.NumPoints())
			}
		}
		mu.Lock()
		records += stats.Records
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(records) != binStats.Records {
		t.Errorf("read %d records, generated %d", records, binStats.Records)
	}

	// Encoder helpers round-trip through the facade too.
	g, err := vectorio.ParseWKT("POLYGON ((0 0, 2 0, 2 2, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	rec := vectorio.AppendWKBRecord(nil, g)
	back, n, err := vectorio.DecodeWKBRecord(rec)
	if err != nil || n != len(rec) {
		t.Fatalf("framed round trip: %v (n=%d of %d)", err, n, len(rec))
	}
	if vectorio.FormatWKT(back) != vectorio.FormatWKT(g) {
		t.Errorf("round trip changed geometry: %s", vectorio.FormatWKT(back))
	}
}

// TestStreamingFacade drives the exported streaming pipeline: ReadStream
// batches feed an Exchanger opened with Partitioner.Stream, and the
// one-call ReadExchange composition partitions identically.
func TestStreamingFacade(t *testing.T) {
	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	layer, err := fs.Create("stream.wkt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		layer.Append([]byte(fmt.Sprintf("POINT (%d.5 %d.5)\n", i%10, (i/10)%10)))
	}
	world := vectorio.Envelope{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}

	var mu sync.Mutex
	manual := map[int]int{} // cell -> geoms, summed over ranks
	composed := map[int]int{}
	totalBatches := 0
	err = vectorio.Run(vectorio.Local(3), func(c *vectorio.Comm) error {
		f := vectorio.Open(c, layer, vectorio.Hints{})
		g, err := vectorio.NewGrid(world, 4, 4)
		if err != nil {
			return err
		}
		pt := &vectorio.Partitioner{Grid: g, DirectGrid: true}

		// Explicit composition: Stream + ReadStream(sink=Add) + Finish.
		ex, err := pt.Stream(c)
		if err != nil {
			return err
		}
		batches := 0
		if _, err := vectorio.ReadStream(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{
			BlockSize: 256, StreamBatch: 8,
		}, func(batch []vectorio.Geometry) error {
			batches++
			return ex.Add(batch)
		}); err != nil {
			return err
		}
		cells, _, err := ex.Finish()
		if err != nil {
			return err
		}

		// One-call composition over the same grid.
		cells2, _, _, err := vectorio.ReadExchange(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{
			BlockSize: 256, StreamBatch: 8,
		}, pt)
		if err != nil {
			return err
		}

		mu.Lock()
		for cell, gs := range cells {
			manual[cell] += len(gs)
		}
		for cell, gs := range cells2 {
			composed[cell] += len(gs)
		}
		totalBatches += batches
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(manual) == 0 || totalBatches < 3 {
		t.Fatalf("streaming facade did not stream: %d cells, %d batches", len(manual), totalBatches)
	}
	total := 0
	for cell, got := range manual {
		if composed[cell] != got {
			t.Errorf("cell %d: manual composition %d geoms, ReadExchange %d", cell, got, composed[cell])
		}
		total += got
	}
	if total != n {
		t.Errorf("partitioned %d points, want %d", total, n)
	}
}

// TestStreamedIndexFacade drives the streamed indexing and query surface:
// BuildIndexStream fed by a ReadStream sink, the one-call
// BuildIndexFiles, and RangeQueryFiles — checking the streamed results
// against the materialized BuildIndex/RangeQuery on the same layer.
func TestStreamedIndexFacade(t *testing.T) {
	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	layer, err := fs.Create("sq.wkt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		x, y := i%20, (i*7)%20
		layer.Append([]byte(fmt.Sprintf(
			"POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d))\n",
			x, y, x+1, y, x+1, y+1, x, y+1, x, y)))
	}
	world := vectorio.Envelope{MinX: 0, MinY: 0, MaxX: 21, MaxY: 21}
	queries := []vectorio.Envelope{
		{MinX: 2, MinY: 2, MaxX: 9, MaxY: 9},
		{MinX: 14.5, MinY: 14.5, MaxX: 14.5, MaxY: 14.5}, // degenerate
		{MinX: 100, MinY: 100, MaxX: 110, MaxY: 110},     // outside
	}
	iopt := vectorio.IndexOptions{GridCells: 16, Envelope: &world}
	jopt := vectorio.JoinOptions{GridCells: 16, Envelope: &world}
	readOpt := vectorio.ReadOptions{BlockSize: 512, StreamBatch: 16}

	var mu sync.Mutex
	streamedCells := map[int]int{}
	filesCells := map[int]int{}
	materializedCells := map[int]int{}
	var streamedPairs, materializedPairs int64
	err = vectorio.Run(vectorio.Local(3), func(c *vectorio.Comm) error {
		f := vectorio.Open(c, layer, vectorio.Hints{})

		// Explicit composition: BuildIndexStream fed through a ReadStream
		// sink.
		s, err := vectorio.BuildIndexStream(c, iopt)
		if err != nil {
			return err
		}
		if _, err := vectorio.ReadStream(c, f, vectorio.NewWKTParser(), readOpt, s.Add); err != nil {
			return err
		}
		trees, _, err := s.Finish()
		if err != nil {
			return err
		}

		// One-call compositions.
		trees2, _, _, err := vectorio.BuildIndexFiles(c, f, vectorio.NewWKTParser(), readOpt, iopt)
		if err != nil {
			return err
		}
		qbd, err := vectorio.RangeQueryFiles(c, f, vectorio.NewWKTParser(), readOpt, queries, jopt)
		if err != nil {
			return err
		}

		// Materialized reference.
		local, _, err := vectorio.ReadPartition(c, f, vectorio.NewWKTParser(), readOpt)
		if err != nil {
			return err
		}
		trees3, _, _, err := vectorio.BuildIndex(c, local, iopt)
		if err != nil {
			return err
		}
		mbd, err := vectorio.RangeQuery(c, local, queries, jopt)
		if err != nil {
			return err
		}

		mu.Lock()
		for cell, tr := range trees {
			streamedCells[cell] += tr.Len()
		}
		for cell, tr := range trees2 {
			filesCells[cell] += tr.Len()
		}
		for cell, tr := range trees3 {
			materializedCells[cell] += tr.Len()
		}
		streamedPairs += qbd.Pairs
		materializedPairs += mbd.Pairs
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(materializedCells) == 0 || materializedPairs == 0 {
		t.Fatalf("materialized reference empty: %d cells, %d pairs", len(materializedCells), materializedPairs)
	}
	for cell, want := range materializedCells {
		if streamedCells[cell] != want {
			t.Errorf("cell %d: streamed %d geoms, materialized %d", cell, streamedCells[cell], want)
		}
		if filesCells[cell] != want {
			t.Errorf("cell %d: BuildIndexFiles %d geoms, materialized %d", cell, filesCells[cell], want)
		}
	}
	if streamedPairs != materializedPairs {
		t.Errorf("RangeQueryFiles pairs %d, RangeQuery %d", streamedPairs, materializedPairs)
	}
}

// TestFaultFacade drives the failure surface the way a downstream chaos
// test would: a seeded FaultPlan through RunOpt, the DeadlockError dump on
// a dropped message, the CrashError teardown, and a transient read fault
// absorbed with no effect on the data — all through the facade.
func TestFaultFacade(t *testing.T) {
	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	layer, err := fs.Create("chaos.wkt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		layer.Append([]byte(fmt.Sprintf("POINT (%d.5 %d.5)\n", i%10, (i/10)%10)))
	}
	read := func(opt vectorio.RunOptions) ([]int, error) {
		counts := make([]int, 3)
		var mu sync.Mutex
		err := vectorio.RunOpt(vectorio.Local(3), opt, func(c *vectorio.Comm) error {
			f := vectorio.Open(c, layer, vectorio.Hints{})
			local, _, err := vectorio.ReadPartition(c, f, vectorio.NewWKTParser(), vectorio.ReadOptions{BlockSize: 128})
			if err != nil {
				return err
			}
			mu.Lock()
			counts[c.Rank()] = len(local)
			mu.Unlock()
			return nil
		})
		return counts, err
	}

	clean, err := read(vectorio.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// A dropped boundary message deadlocks its receiver; the runtime must
	// surface the diagnostic dump, not a bare error.
	plan := vectorio.FaultPlan{Seed: 3, Rules: []vectorio.FaultRule{vectorio.DropTag(1, 77)}}
	_, err = read(vectorio.RunOptions{Fault: plan.New()})
	var dl *vectorio.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("dropped message returned %v, want a DeadlockError", err)
	}
	if !errors.Is(err, vectorio.ErrDeadlock) || len(dl.Blocked) == 0 {
		t.Fatalf("DeadlockError %v lacks the blocked-op dump", dl)
	}

	// An injected crash tears the world down as ErrAborted with the crash
	// site attached.
	plan = vectorio.FaultPlan{Seed: 4, Rules: []vectorio.FaultRule{vectorio.CrashAt(2, 5)}}
	_, err = read(vectorio.RunOptions{Fault: plan.New()})
	var crash *vectorio.CrashError
	if !errors.As(err, &crash) || !errors.Is(err, vectorio.ErrAborted) {
		t.Fatalf("injected crash returned %v, want a CrashError wrapping ErrAborted", err)
	}
	if crash.Rank != 2 || crash.OpIndex != 5 {
		t.Errorf("crash reported at rank %d op %d, want rank 2 op 5", crash.Rank, crash.OpIndex)
	}

	// Transient read faults are absorbed by the bounded retry: same data,
	// and a clean retry afterwards still matches.
	plan = vectorio.FaultPlan{Seed: 5, Rules: []vectorio.FaultRule{vectorio.TransientRead("chaos.wkt", -1, 2)}}
	fs.InjectReadFault(plan.New().ReadFault)
	absorbed, err := read(vectorio.RunOptions{})
	fs.InjectReadFault(nil)
	if err != nil {
		t.Fatalf("transient faults were not absorbed: %v", err)
	}
	retry, err := read(vectorio.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean {
		if absorbed[r] != clean[r] || retry[r] != clean[r] {
			t.Fatalf("rank %d counts: clean %d absorbed %d retry %d", r, clean[r], absorbed[r], retry[r])
		}
	}
}
