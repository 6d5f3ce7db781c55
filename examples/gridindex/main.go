// Grid index example: parallel in-memory spatial indexing (the Figure 20
// workload) plus the spatial MPI collectives that size the grid.
//
// A Road Network flavoured line dataset is read in parallel, the global
// envelope is fixed with the user-defined MPI_UNION reduction over MPI_RECT
// (paper §4.2.2), geometries are exchanged into 2048 grid cells, and every
// rank bulk-builds an R-tree per owned cell. The resulting distributed
// index is then probed with a sample window.
//
// Run with: go run ./examples/gridindex
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/vectorio"
)

func main() {
	spec := vectorio.RoadNetwork()
	scale := spec.DefaultScale * 8

	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		log.Fatal(err)
	}
	f, stats, err := vectorio.GenerateFile(spec, scale, fs, "roadnetwork.wkt", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d line records (%0.1f MB real, 137 GB virtual)\n",
		stats.Records, float64(stats.Bytes)/1e6)

	cfg := vectorio.Roger(2) // 40 ranks
	cfg.ByteScale = scale

	probe := vectorio.Envelope{MinX: -10, MinY: 40, MaxX: 10, MaxY: 55}

	out, err := fs.Create("roadnetwork-indexed.wkt", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	out.SetScale(scale)

	var bd vectorio.Breakdown
	var globalEnv vectorio.Envelope
	var probeHits int
	var cellsOwned int
	var outBytes int64
	var mu sync.Mutex
	err = vectorio.Run(cfg, func(c *vectorio.Comm) error {
		mf := vectorio.Open(c, f, vectorio.Hints{})
		t0 := c.Now()
		local, rstats, err := vectorio.ReadPartition(c, mf, vectorio.WKTParser{}, vectorio.ReadOptions{
			BlockSize: int64(256e6 / scale),
		})
		if err != nil {
			return err
		}

		// The MPI_UNION spatial reduction every rank participates in — the
		// same collective BuildIndex uses internally to fix the grid.
		env, err := vectorio.GlobalEnvelope(c, vectorio.LocalEnvelope(local))
		if err != nil {
			return err
		}

		trees, g, my, err := vectorio.BuildIndex(c, local, vectorio.IndexOptions{GridCells: 2048})
		if err != nil {
			return err
		}
		// The read's time is its ledger delta; the total is one clock
		// difference over read, reduction and build, so it counts the
		// MPI_UNION reduction above that neither part does.
		my.Read = rstats.Ledger.Sum()
		my.Total = c.Now() - t0
		agg, err := my.Aggregate(c)
		if err != nil {
			return err
		}

		// Probe this rank's share of the distributed index.
		hits := 0
		for _, tr := range trees {
			hits += len(tr.Query(probe))
		}

		// Write the partitioned dataset back to ONE file in global grid
		// order — the §4.1 non-contiguous collective output pattern. The
		// file reads as if produced sequentially.
		owned := make(map[int][]vectorio.Geometry, len(trees))
		for cell, tr := range trees {
			if tr.Len() > 0 {
				owned[cell] = tr.Query(tr.Envelope())
			}
		}
		mfOut := vectorio.Open(c, out, vectorio.Hints{})
		total, err := vectorio.WriteCells(c, mfOut, g, owned)
		if err != nil {
			return err
		}

		mu.Lock()
		if c.Rank() == 0 {
			bd = agg
			globalEnv = env
			outBytes = total
		}
		probeHits += hits
		cellsOwned += len(trees)
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nglobal envelope via MPI_UNION: (%.1f %.1f, %.1f %.1f)\n",
		globalEnv.MinX, globalEnv.MinY, globalEnv.MaxX, globalEnv.MaxY)
	fmt.Printf("indexing on %d ranks, 2048 cells (virtual full-scale seconds):\n", cfg.Size())
	fmt.Printf("  read       %8.2f s\n", bd.Read)
	fmt.Printf("  partition  %8.2f s\n", bd.Partition)
	fmt.Printf("  comm       %8.2f s\n", bd.Comm)
	fmt.Printf("  index      %8.2f s\n", bd.Index)
	fmt.Printf("  total      %8.2f s\n", bd.Total)
	fmt.Printf("%d geometries in %d distributed cells; probe window matched %d MBRs\n",
		bd.Indexed, cellsOwned, probeHits)
	fmt.Printf("grid-ordered output written collectively: %.1f MB in %s\n",
		float64(outBytes)/1e6, out.Name())
}
