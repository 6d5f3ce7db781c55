package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkt"
)

// streamPerRank runs ReadStream with a collecting sink and returns each
// rank's geometries as WKT strings in delivery order, its stats, its batch
// count, and its final virtual time.
func streamPerRank(t *testing.T, pf *pfs.File, ranks int, mk func() Parser, opt ReadOptions) ([][]string, []ReadStats, []int, []float64) {
	t.Helper()
	var mu sync.Mutex
	out := make([][]string, ranks)
	sts := make([]ReadStats, ranks)
	batches := make([]int, ranks)
	clocks := make([]float64, ranks)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		var recs []string
		n := 0
		stats, err := ReadStream(c, f, mk(), opt, func(batch []geom.Geometry) error {
			n++
			for _, g := range batch {
				recs = append(recs, wkt.Format(g))
			}
			return nil
		})
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = recs
		sts[c.Rank()] = stats
		batches[c.Rank()] = n
		clocks[c.Rank()] = c.Now()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, sts, batches, clocks
}

// readPerRankClocked is readPerRank plus each rank's final virtual time.
func readPerRankClocked(t *testing.T, pf *pfs.File, ranks int, mk func() Parser, opt ReadOptions) ([][]string, []ReadStats, []float64) {
	t.Helper()
	var mu sync.Mutex
	out := make([][]string, ranks)
	sts := make([]ReadStats, ranks)
	clocks := make([]float64, ranks)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pf, mpiio.Hints{})
		geoms, stats, err := ReadPartition(c, f, mk(), opt)
		if err != nil {
			return err
		}
		recs := make([]string, len(geoms))
		for i, g := range geoms {
			recs[i] = wkt.Format(g)
		}
		mu.Lock()
		out[c.Rank()] = recs
		sts[c.Rank()] = stats
		clocks[c.Rank()] = c.Now()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, sts, clocks
}

// TestReadStreamMatrix is the tentpole's streaming-equivalence contract:
// for every framing × strategy × access level, a
// collecting-sink ReadStream must deliver rank-by-rank byte-identical
// geometries in identical order to ReadPartition, with identical stats and
// an identical final virtual clock (the two share one engine and one
// agreement structure), sliced into more than one batch when the stream
// exceeds StreamBatch.
func TestReadStreamMatrix(t *testing.T) {
	records := genRecords(600, 36)
	wktFile := makeWKTFile(t, records)
	wkbFile := makeWKBFile(t, genGeoms(t, 600, 36))

	cases := []struct {
		name string
		pf   *pfs.File
		mk   func() Parser
		fr   Framing
	}{
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
				label := fmt.Sprintf("%s %s level=%d", fc.name, strat, level)
				want, wantStats, wantClocks := readPerRankClocked(t, fc.pf, ranks, fc.mk, opt)
				opt.StreamBatch = 37 // force many batches, uneven tail
				got, gotStats, batches, gotClocks := streamPerRank(t, fc.pf, ranks, fc.mk, opt)
				assertRanksIdentical(t, got, want, label)
				for r := 0; r < ranks; r++ {
					if gotStats[r] != wantStats[r] {
						t.Errorf("%s: rank %d stats drifted:\n got %+v\nwant %+v", label, r, gotStats[r], wantStats[r])
					}
					if gotClocks[r] != wantClocks[r] {
						t.Errorf("%s: rank %d clock %g, materialized %g", label, r, gotClocks[r], wantClocks[r])
					}
					if wantBatches := (len(want[r]) + 36) / 37; batches[r] != wantBatches {
						t.Errorf("%s: rank %d delivered %d batches, want %d", label, r, batches[r], wantBatches)
					}
				}
			}
		}
	}
}

// exchangeResult is one rank's partitioned cells rendered comparable: cell
// id -> WKT strings in arrival order.
type exchangeResult map[int][]string

func renderCells(cells map[int][]geom.Geometry) exchangeResult {
	out := make(exchangeResult, len(cells))
	for cell, gs := range cells {
		recs := make([]string, len(gs))
		for i, g := range gs {
			recs[i] = wkt.Format(g)
		}
		out[cell] = recs
	}
	return out
}

// TestStreamedExchangeMatrix: the one-pass pipeline (ReadExchange) must
// partition identically to the two-pass materialized pipeline
// (ReadPartition + Exchange) — same per-rank cells, same within-cell
// order, same exchange counters, same ProjectTime — across framings,
// strategies, and sliding-window phase counts. And since
// Exchange is one Add over the same engine, feeding the materialized slice
// through Stream + Add in chunks of any size + Finish must reproduce it
// bitwise: cells, within-cell order, every ExchangeStats field, and the
// final clock.
func TestStreamedExchangeMatrix(t *testing.T) {
	wktFile := makeWKTFile(t, genRecords(400, 37))
	wkbFile := makeWKBFile(t, genGeoms(t, 400, 37))
	world := geom.Envelope{MinX: -95, MinY: -95, MaxX: 95, MaxY: 95}

	cases := []struct {
		name string
		pf   *pfs.File
		mk   func() Parser
		fr   Framing
	}{
		{"delimited", wktFile, func() Parser { return NewWKTParser() }, nil},
		{"length-prefixed", wkbFile, func() Parser { return NewWKBParser() }, LengthPrefixed()},
	}
	// How a run feeds the exchange: the fused ReadExchange, the materialized
	// Exchange, or (any positive value) ReadPartition + Stream + Add in
	// chunks of that many geometries + Finish.
	const (
		fused        = -1
		materialized = 0
		wholeSlice   = 1 << 30
	)
	const ranks = 3
	for _, fc := range cases {
		for _, strat := range []Strategy{MessageBased, Overlap} {
			for _, window := range []int{0, 5} { // one phase vs 13 phases over 64 cells
				opt := ReadOptions{
					BlockSize: 1 << 10, Strategy: strat, MaxGeomSize: 2 << 10,
					Framing: fc.fr, StreamBatch: 29,
				}
				label := fmt.Sprintf("%s %s window=%d", fc.name, strat, window)

				run := func(feed int) ([]exchangeResult, []ExchangeStats, []float64) {
					var mu sync.Mutex
					res := make([]exchangeResult, ranks)
					sts := make([]ExchangeStats, ranks)
					clocks := make([]float64, ranks)
					err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
						f := mpiio.Open(c, pf(fc), mpiio.Hints{})
						g, err := grid.New(world, 8, 8)
						if err != nil {
							return err
						}
						pt := &Partitioner{Grid: g, WindowCells: window, DirectGrid: true}
						var cells map[int][]geom.Geometry
						var estats ExchangeStats
						if feed == fused {
							cells, _, estats, err = ReadExchange(c, f, fc.mk(), opt, pt)
						} else {
							var local []geom.Geometry
							local, _, err = ReadPartition(c, f, fc.mk(), opt)
							if err != nil {
								return err
							}
							if feed == materialized {
								cells, estats, err = pt.Exchange(c, local)
							} else {
								var ex *Exchanger
								if ex, err = pt.Stream(c); err != nil {
									return err
								}
								for i := 0; i < len(local); i += feed {
									if err = ex.Add(local[i:min(i+feed, len(local))]); err != nil {
										return err
									}
								}
								cells, estats, err = ex.Finish()
							}
						}
						if err != nil {
							return err
						}
						mu.Lock()
						res[c.Rank()] = renderCells(cells)
						sts[c.Rank()] = estats
						clocks[c.Rank()] = c.Now()
						mu.Unlock()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return res, sts, clocks
				}
				wantRes, wantSts, wantClocks := run(materialized)
				gotRes, gotSts, _ := run(fused)
				for r := 0; r < ranks; r++ {
					if !reflect.DeepEqual(gotRes[r], wantRes[r]) {
						t.Fatalf("%s: rank %d cells differ from materialized", label, r)
					}
					g, w := gotSts[r], wantSts[r]
					if g.Replicas != w.Replicas || g.GeomsRecv != w.GeomsRecv ||
						g.BytesSent != w.BytesSent || g.Phases != w.Phases {
						t.Errorf("%s: rank %d counters drifted:\n got %+v\nwant %+v", label, r, g, w)
					}
					if diff := math.Abs(g.ProjectTime() - w.ProjectTime()); diff > 1e-9*(1+w.ProjectTime()) {
						t.Errorf("%s: rank %d ProjectTime %g, materialized %g", label, r, g.ProjectTime(), w.ProjectTime())
					}
				}
				for _, chunk := range []int{1, 7, wholeSlice} {
					gotRes, gotSts, gotClocks := run(chunk)
					for r := 0; r < ranks; r++ {
						if !reflect.DeepEqual(gotRes[r], wantRes[r]) {
							t.Fatalf("%s: rank %d cells differ from Exchange with Add chunks of %d", label, r, chunk)
						}
						if gotSts[r] != wantSts[r] {
							t.Errorf("%s: rank %d stats drifted with Add chunks of %d:\n got %+v\nwant %+v", label, r, chunk, gotSts[r], wantSts[r])
						}
						if gotClocks[r] != wantClocks[r] {
							t.Errorf("%s: rank %d clock %v with Add chunks of %d, Exchange %v", label, r, gotClocks[r], chunk, wantClocks[r])
						}
					}
				}
			}
		}
	}
}

// pf defangs the closure capture in the matrix above.
func pf(fc struct {
	name string
	pf   *pfs.File
	mk   func() Parser
	fr   Framing
}) *pfs.File {
	return fc.pf
}

// TestReadStreamSinkErrorAgreement: a sink failure on one rank must fail
// the collective read on every rank — the failing rank with its own error,
// the others with ErrRemoteSink — under both SkipErrors settings, with no
// hang.
func TestReadStreamSinkErrorAgreement(t *testing.T) {
	pfile := makeWKTFile(t, genRecords(300, 38))
	boom := errors.New("downstream full")
	for _, skip := range []bool{false, true} {
		var mu sync.Mutex
		remote, local := 0, 0
		err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
			f := mpiio.Open(c, pfile, mpiio.Hints{})
			fail := c.Rank() == 1
			delivered := 0
			_, err := ReadStream(c, f, NewWKTParser(), ReadOptions{
				BlockSize: 512, SkipErrors: skip, StreamBatch: 16,
			}, func(batch []geom.Geometry) error {
				delivered++
				if fail && delivered == 2 {
					return boom
				}
				return nil
			})
			switch {
			case err == nil:
				return fmt.Errorf("rank %d: sink failure not surfaced", c.Rank())
			case fail && errors.Is(err, boom):
				mu.Lock()
				local++
				mu.Unlock()
			case !fail && errors.Is(err, ErrRemoteSink):
				mu.Lock()
				remote++
				mu.Unlock()
			default:
				return fmt.Errorf("rank %d: wrong error %v", c.Rank(), err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("skip=%v: %v", skip, err)
		}
		if local != 1 || remote != 2 {
			t.Fatalf("skip=%v: local=%d remote=%d", skip, local, remote)
		}
	}
}

// TestReadStreamParseErrorAgreement: a malformed record mid-stream fails
// every rank of a streaming read (fatal mode), stops deliveries past the
// error, and under SkipErrors is counted exactly as the materialized path
// counts it while the stream completes.
func TestReadStreamParseErrorAgreement(t *testing.T) {
	records := genRecords(240, 39)
	records[201] = "POLYGON ((broken"
	fs, _ := pfs.New(pfs.CometLustre())
	pfile, _ := fs.Create("badstream.wkt", 4, 1<<10)
	for _, r := range records {
		pfile.Append([]byte(r))
		pfile.Append([]byte{'\n'})
	}

	// Fatal: all ranks fail, none hang.
	failures := 0
	var mu sync.Mutex
	err := mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
		f := mpiio.Open(c, pfile, mpiio.Hints{})
		_, err := ReadStream(c, f, NewWKTParser(), ReadOptions{
			BlockSize: 512, StreamBatch: 16,
		}, func([]geom.Geometry) error { return nil })
		if err == nil {
			return fmt.Errorf("rank %d: malformed record accepted", c.Rank())
		}
		if !errors.Is(err, ErrRemoteParse) && !strings.Contains(err.Error(), "broken") {
			return fmt.Errorf("rank %d: wrong error %v", c.Rank(), err)
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
		t.Fatalf("%d ranks failed, want 3", failures)
	}

	// SkipErrors: stream completes; counts match materialized.
	opt := ReadOptions{BlockSize: 512, SkipErrors: true}
	want, wantStats := readPerRank(t, pfile, 3, func() Parser { return NewWKTParser() }, opt)
	opt.StreamBatch = 16
	got, gotStats, _, _ := streamPerRank(t, pfile, 3, func() Parser { return NewWKTParser() }, opt)
	assertRanksIdentical(t, got, want, "skip-errors")
	for r := range wantStats {
		if gotStats[r].Errors != wantStats[r].Errors || gotStats[r].Records != wantStats[r].Records {
			t.Errorf("rank %d: records/errors %d/%d, want %d/%d", r,
				gotStats[r].Records, gotStats[r].Errors, wantStats[r].Records, wantStats[r].Errors)
		}
	}
}

// TestExchangerReuseGuards: Finish is one-shot.
func TestExchangerReuseGuards(t *testing.T) {
	err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
		g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 2, 2)
		if err != nil {
			return err
		}
		pt := &Partitioner{Grid: g}
		ex, err := pt.Stream(c)
		if err != nil {
			return err
		}
		if err := ex.Add([]geom.Geometry{geom.Point{X: 0.5, Y: 0.5}}); err != nil {
			return err
		}
		if _, _, err := ex.Finish(); err != nil {
			return err
		}
		if _, _, err := ex.Finish(); err == nil {
			return fmt.Errorf("double Finish accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// addFinishStream is the per-phase-delivery composition the tests below
// drive: Stream, one Add with the whole batch, FinishStream into sink.
func addFinishStream(c *mpi.Comm, pt *Partitioner, local []geom.Geometry, sink func(map[int][]geom.Geometry) error) (ExchangeStats, error) {
	ex, err := pt.Stream(c)
	if err != nil {
		return ExchangeStats{}, err
	}
	if err := ex.Add(local); err != nil {
		return ExchangeStats{}, err
	}
	return ex.FinishStream(sink)
}

// TestFinishStreamPerPhaseDelivery: the per-phase sink must see every
// sliding-window phase exactly once, each delivery holding only cells of
// that phase's window, phases disjoint, and the union — contents and
// within-cell order — identical to the materialized Exchange.
func TestFinishStreamPerPhaseDelivery(t *testing.T) {
	const ranks, window, gridDim = 3, 5, 8
	geoms := genGeoms(t, 300, 41)
	var mu sync.Mutex
	merged := make([]exchangeResult, ranks)
	phaseCount := make([]int, ranks)
	want := make([]exchangeResult, ranks)

	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, gridDim, gridDim)
		if err != nil {
			return err
		}
		local := make([]geom.Geometry, 0, len(geoms)/ranks+1)
		for i := c.Rank(); i < len(geoms); i += ranks {
			local = append(local, geoms[i])
		}
		pt := &Partitioner{Grid: g, WindowCells: window, DirectGrid: true}

		union := make(map[int][]geom.Geometry)
		phases := 0
		_, err = addFinishStream(c, pt, local, func(cells map[int][]geom.Geometry) error {
			lo, hi := phases*window, (phases+1)*window
			for cell := range cells {
				if cell < lo || cell >= hi {
					return fmt.Errorf("phase %d delivered cell %d outside window [%d,%d)", phases, cell, lo, hi)
				}
				if _, dup := union[cell]; dup {
					return fmt.Errorf("cell %d delivered twice", cell)
				}
			}
			for cell, gs := range cells {
				union[cell] = gs
			}
			phases++
			return nil
		})
		if err != nil {
			return err
		}
		wantPhases := (gridDim*gridDim + window - 1) / window
		if phases != wantPhases {
			return fmt.Errorf("rank %d saw %d phase deliveries, want %d", c.Rank(), phases, wantPhases)
		}

		cells, _, err := pt.Exchange(c, local)
		if err != nil {
			return err
		}
		mu.Lock()
		merged[c.Rank()] = renderCells(union)
		phaseCount[c.Rank()] = phases
		want[c.Rank()] = renderCells(cells)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if !reflect.DeepEqual(merged[r], want[r]) {
			t.Fatalf("rank %d: per-phase union differs from materialized Exchange", r)
		}
	}
}

// TestFinishStreamSinkErrorCompletes: a sink error on one rank mid-phases
// must not strand the others — every remaining phase's collectives still
// run on all ranks, deliveries stop on the failing rank, FinishStream
// returns the error there and nil elsewhere, and nobody hangs.
func TestFinishStreamSinkErrorCompletes(t *testing.T) {
	const ranks = 3
	geoms := genGeoms(t, 200, 42)
	boom := errors.New("index shard full")
	var mu sync.Mutex
	deliveries := make([]int, ranks)
	errs := make([]error, ranks)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 6, 6)
		if err != nil {
			return err
		}
		local := make([]geom.Geometry, 0, len(geoms)/ranks+1)
		for i := c.Rank(); i < len(geoms); i += ranks {
			local = append(local, geoms[i])
		}
		pt := &Partitioner{Grid: g, WindowCells: 4, DirectGrid: true} // 9 phases
		n := 0
		_, serr := addFinishStream(c, pt, local, func(map[int][]geom.Geometry) error {
			n++
			if c.Rank() == 1 && n == 2 {
				return boom
			}
			return nil
		})
		mu.Lock()
		deliveries[c.Rank()] = n
		errs[c.Rank()] = serr
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if r == 1 {
			if !errors.Is(errs[r], boom) {
				t.Errorf("rank 1: error %v, want %v", errs[r], boom)
			}
			if deliveries[r] != 2 {
				t.Errorf("rank 1: %d deliveries after error, want exactly 2", deliveries[r])
			}
			continue
		}
		if errs[r] != nil {
			t.Errorf("rank %d: unexpected error %v", r, errs[r])
		}
		if deliveries[r] != 9 {
			t.Errorf("rank %d: %d deliveries, want all 9 phases", r, deliveries[r])
		}
	}
}

// TestFinishStreamGuards: FinishStream needs a sink and is one-shot.
func TestFinishStreamGuards(t *testing.T) {
	err := mpi.Run(cluster.Local(1), func(c *mpi.Comm) error {
		g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 2, 2)
		if err != nil {
			return err
		}
		pt := &Partitioner{Grid: g}
		ex, err := pt.Stream(c)
		if err != nil {
			return err
		}
		if _, err := ex.FinishStream(nil); err == nil {
			return fmt.Errorf("nil sink accepted")
		}
		if _, err := ex.FinishStream(func(map[int][]geom.Geometry) error { return nil }); err != nil {
			return err
		}
		if err := ex.Add([]geom.Geometry{geom.Point{X: 0.5, Y: 0.5}}); err == nil {
			return fmt.Errorf("Add after Finish accepted")
		}
		if _, err := ex.FinishStream(func(map[int][]geom.Geometry) error { return nil }); err == nil {
			return fmt.Errorf("double FinishStream accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
