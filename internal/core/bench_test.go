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

// BenchmarkReadKnobs is ParseWorkers' row: ReadPartition of the lakes layer
// at 1/256 (35 MB of WKT, the benchmark/ input) by rank count and
// ParseWorkers. Run with -cpu 2 to compare {1 rank, 2 workers} against
// {2 ranks, 0 workers} at equal thread count. The knob is text-only: binary
// framings parse on the rank goroutine and ignore it.
func BenchmarkReadKnobs(b *testing.B) {
	const scale = 256
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		b.Fatal(err)
	}
	pf, _, err := datagen.GenerateFileEncoded(datagen.Lakes(), scale, datagen.EncodingWKT, fs, "lakes.wkt", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{0, 1, 2} {
			opt := ReadOptions{BlockSize: 256e6 / scale, ParseWorkers: workers}
			b.Run(fmt.Sprintf("wkt/ranks=%d/workers=%d", ranks, workers), func(b *testing.B) {
				b.SetBytes(pf.Size())
				for i := 0; i < b.N; i++ {
					err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
						_, _, err := ReadPartition(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKTParser(), opt)
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
