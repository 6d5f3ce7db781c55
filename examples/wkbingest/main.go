// Wkbingest: the binary WKB fast path vs newline-delimited WKT.
//
// The program generates the same synthetic lakes layer twice — once as
// newline-delimited WKT text and once as length-prefixed binary WKB
// records (a little-endian u32 payload length followed by the WKB payload)
// — then reads both in parallel with ReadPartition and compares ingest
// throughput. The binary path parses no floats at all, so it approaches
// raw I/O bandwidth, which is what the paper's binary experiments (Figures
// 12 and 15) measure.
//
// Because a length header is indistinguishable from payload bytes, binary
// records are not self-synchronizing; ReadPartition repairs block
// boundaries by threading phase information between ranks in a cheap
// header-hopping chain, whatever the boundary strategy. That machinery is
// invisible here: only the Framing option and the parser change.
//
// Run with: go run ./examples/wkbingest
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/vectorio"
)

func main() {
	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		log.Fatal(err)
	}

	// The lakes polygon layer at 1/4096 of its 9 GB full-scale size, in
	// both encodings. Records correspond one-to-one between the files.
	spec := vectorio.Lakes()
	const scale = 4096
	txt, txtStats, err := vectorio.GenerateFileEncoded(spec, scale, vectorio.EncodingWKT, fs, "lakes.wkt", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	bin, binStats, err := vectorio.GenerateFileEncoded(spec, scale, vectorio.EncodingWKB, fs, "lakes.wkb", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %q: %d records, %d bytes (text)\n", "lakes.wkt", txtStats.Records, txtStats.Bytes)
	fmt.Printf("generated %q: %d records, %d bytes (binary)\n", "lakes.wkb", binStats.Records, binStats.Bytes)

	// ingest reads one file across 4 ranks and reports real wall time.
	ingest := func(label string, f *vectorio.PFSFile, opt vectorio.ReadOptions, parser func() vectorio.Parser) {
		var mu sync.Mutex
		records, bytes := 0, int64(0)
		start := time.Now()
		err := vectorio.Run(vectorio.Local(4), func(c *vectorio.Comm) error {
			mf := vectorio.Open(c, f, vectorio.Hints{})
			geoms, stats, err := vectorio.ReadPartition(c, mf, parser(), opt)
			if err != nil {
				return err
			}
			mu.Lock()
			records += len(geoms)
			bytes += stats.BytesRead
			mu.Unlock()
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)
		fmt.Printf("%-28s %7d records in %8s  (%7.1f MB/s)\n",
			label, records, wall.Round(time.Millisecond), float64(bytes)/wall.Seconds()/1e6)
	}

	opt := vectorio.ReadOptions{BlockSize: 64 << 10}
	ingest("WKT text, message strategy", txt, opt, func() vectorio.Parser { return vectorio.NewWKTParser() })

	opt.Framing = vectorio.LengthPrefixed()
	ingest("WKB binary", bin, opt, func() vectorio.Parser { return vectorio.NewWKBParser() })
}
