package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

var benchRecord = []byte("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))\tosm_id=42\n")

// BenchmarkWKTParserPooled exercises the zero-value WKTParser, which draws
// pooled scanners from the wkt package per record.
func BenchmarkWKTParserPooled(b *testing.B) {
	p := WKTParser{}
	b.SetBytes(int64(len(benchRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(benchRecord); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWKTParserDedicated exercises NewWKTParser — the per-rank hot
// path configuration with a private coordinate arena and no pool traffic.
func BenchmarkWKTParserDedicated(b *testing.B) {
	p := NewWKTParser()
	b.SetBytes(int64(len(benchRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(benchRecord); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadExchange is benchmark/'s partition_wkb op without the
// driver, and its WKT twin: the lakes layer at 1/256 (35 MB) streamed by
// ReadExchange on 2 ranks into a 16×16 DirectGrid over the world — the raw
// path on WKB, Add on WKT. Profile the exchange layer in one command:
//
//	go test -run xxx -bench BenchmarkReadExchange/wkb -cpuprofile cpu.out -memprofile mem.out ./internal/core/
func BenchmarkReadExchange(b *testing.B) {
	const scale = 256
	world := geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	for _, enc := range []datagen.Encoding{datagen.EncodingWKB, datagen.EncodingWKT} {
		fs, err := pfs.New(pfs.RogerGPFS())
		if err != nil {
			b.Fatal(err)
		}
		pf, _, err := datagen.GenerateFileEncoded(datagen.Lakes(), scale, enc, fs, "lakes"+enc.Ext(), 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		opt := ReadOptions{BlockSize: 256e6 / scale}
		newParser := func() Parser { return NewWKTParser() }
		if enc == datagen.EncodingWKB {
			opt.Framing = LengthPrefixed()
			newParser = func() Parser { return NewWKBParser() }
		}
		b.Run(enc.Ext()[1:], func(b *testing.B) {
			b.SetBytes(pf.Size())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
					g, err := grid.New(world, 16, 16)
					if err != nil {
						return err
					}
					pt := &Partitioner{Grid: g, DirectGrid: true}
					_, _, _, err = ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), newParser(), opt, pt)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadExchangeKnobs is ParseWorkers' row on the raw path:
// ReadExchange of the lakes layer at 1/256 as length-prefixed WKB (scanned,
// never decoded on the sender) into a 16×16 DirectGrid, by rank count and
// ParseWorkers. Run with -cpu 2 to compare {1 rank, 1 or 2 workers} against
// {2 ranks, 0 workers} at equal thread count.
func BenchmarkReadExchangeKnobs(b *testing.B) {
	const scale = 256
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		b.Fatal(err)
	}
	pf, _, err := datagen.GenerateFileEncoded(datagen.Lakes(), scale, datagen.EncodingWKB, fs, "lakes.wkb", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	world := geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	for _, knob := range []struct{ ranks, workers int }{{1, 0}, {1, 1}, {1, 2}, {2, 0}} {
		opt := ReadOptions{BlockSize: 256e6 / scale, Framing: LengthPrefixed(), ParseWorkers: knob.workers}
		b.Run(fmt.Sprintf("ranks=%d/workers=%d", knob.ranks, knob.workers), func(b *testing.B) {
			b.SetBytes(pf.Size())
			for i := 0; i < b.N; i++ {
				err := mpi.Run(cluster.Local(knob.ranks), func(c *mpi.Comm) error {
					g, err := grid.New(world, 16, 16)
					if err != nil {
						return err
					}
					_, _, _, err = ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKBParser(), opt, &Partitioner{Grid: g, DirectGrid: true})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadKnobs is ROADMAP item 4's row: ReadPartition over the lakes
// layer at 1/256 (35 MB, the benchmark/ input) by encoding, rank count and
// ParseWorkers. Run with -cpu 2 to compare {2 ranks, 0 workers} against
// {1 rank, 2 workers} at equal thread count.
func BenchmarkReadKnobs(b *testing.B) {
	const scale = 256
	for _, enc := range []datagen.Encoding{datagen.EncodingWKT, datagen.EncodingWKB} {
		fs, err := pfs.New(pfs.RogerGPFS())
		if err != nil {
			b.Fatal(err)
		}
		pf, _, err := datagen.GenerateFileEncoded(datagen.Lakes(), scale, enc, fs, "lakes"+enc.Ext(), 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		opt := ReadOptions{BlockSize: 256e6 / scale}
		newParser := func() Parser { return NewWKTParser() }
		if enc == datagen.EncodingWKB {
			opt.Framing = LengthPrefixed()
			newParser = func() Parser { return NewWKBParser() }
		}
		for _, ranks := range []int{1, 2} {
			for _, workers := range []int{0, 1, 2} {
				opt.ParseWorkers = workers
				b.Run(fmt.Sprintf("%s/ranks=%d/workers=%d", enc.Ext()[1:], ranks, workers), func(b *testing.B) {
					b.SetBytes(pf.Size())
					for i := 0; i < b.N; i++ {
						err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
							_, _, err := ReadPartition(c, mpiio.Open(c, pf, mpiio.Hints{}), newParser(), opt)
							return err
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
