// Streamquery: file → index → range query in one streamed pass.
//
// The paper's end goal is fast spatial access after partitioning, and the
// one-pass pipeline carries parsed batches all the way there: ReadStream
// feeds the streaming Exchanger, each grid cell's R-tree is bulk-loaded
// the moment its sliding-window exchange phase completes, and the query
// batch runs against the finished trees — no rank ever materializes its
// local geometry slice or a full owned-cells map.
//
// The program generates a synthetic lakes layer (whose envelope is the
// world bounds by construction), runs RangeQueryFiles through both the
// one-pass streamed arm (envelope given) and the two-pass materialized
// arm (envelope nil), and shows they find identical matches.
//
// Run with: go run ./examples/streamquery
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/vectorio"
)

func main() {
	spec := vectorio.Lakes()
	spec.FullBytes /= 16384 // scale the 9 GB layer down to ~½ MB
	spec.FullCount /= 16384

	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		log.Fatal(err)
	}
	f, _, err := vectorio.GenerateFile(spec, 1, fs, "lakes.wkt", 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The generator draws coordinates in the world envelope, so the grid
	// can be fixed up front — the condition for the one-pass pipeline.
	world := vectorio.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

	// A replicated batch of query windows: every rank evaluates all of
	// them over its owned cells.
	var queries []vectorio.Envelope
	for i := 0; i < 16; i++ {
		x := -180 + float64(i)*22
		y := -90 + float64((i*5)%12)*14
		queries = append(queries, vectorio.Envelope{MinX: x, MinY: y, MaxX: x + 15, MaxY: y + 10})
	}

	run := func(envelope *vectorio.Envelope) (pairs int64, indexed int64, bd vectorio.Breakdown) {
		var mu sync.Mutex
		err := vectorio.Run(vectorio.Local(4), func(c *vectorio.Comm) error {
			mf := vectorio.Open(c, f, vectorio.Hints{})
			my, err := vectorio.RangeQueryFiles(c, mf, vectorio.NewWKTParser(), vectorio.ReadOptions{
				BlockSize:   32 << 10,
				StreamBatch: 64,
			}, queries, vectorio.JoinOptions{
				GridCells:   256,
				WindowCells: 32, // 8 sliding-window phases; trees rise per phase
				Envelope:    envelope,
			})
			if err != nil {
				return err
			}
			agg, err := my.Aggregate(c)
			if err != nil {
				return err
			}
			mu.Lock()
			pairs += my.Pairs
			indexed += my.Indexed
			if c.Rank() == 0 {
				bd = agg
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		return pairs, indexed, bd
	}

	streamPairs, streamIndexed, streamBD := run(&world)
	matPairs, matIndexed, _ := run(nil)

	fmt.Printf("one-pass file → index → query over 4 ranks:\n")
	fmt.Printf("  indexed %d geometries into per-cell R-trees, %d query matches\n", streamIndexed, streamPairs)
	fmt.Printf("  virtual phase times: read %.2fs  partition %.2fs  comm %.2fs  index %.2fs  refine %.2fs\n",
		streamBD.Read, streamBD.Partition, streamBD.Comm, streamBD.Index, streamBD.Refine)
	fmt.Printf("two-pass materialized reference: indexed %d, matches %d\n", matIndexed, matPairs)
	// Indexed counts (geometry, cell) replicas, which depend on the grid:
	// the one-pass arm tiles the a-priori world envelope, the two-pass arm
	// the tighter Allreduce-derived one. The query answers must agree.
	if streamPairs != matPairs {
		log.Fatal("streamed and materialized pipelines disagree")
	}
	fmt.Println("streamed matches ≡ materialized matches, without ever materializing a local slice")
}
