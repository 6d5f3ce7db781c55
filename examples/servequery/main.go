// Resident query service example: the per-rank cell indexes stay standing
// behind a vectorio.Service while concurrent client goroutines fire range
// queries at it.
//
// A point dataset is read and grid-partitioned across ranks exactly as in
// examples/rangequery, but instead of evaluating one replicated batch,
// ServeQuery parks each rank's finished R-trees behind the service. Eight
// client goroutines — outside the MPI world, never touching a Comm — then
// share a query stream: each request is routed only to the ranks whose
// cells it overlaps, the client that sent it evaluates it there, and every
// answer is deterministic (merged in ascending-cell rank order over
// immutable trees). The service retains nothing per answered
// request and charges no virtual time for serving; a harness that wants the
// final virtual clock to match the batch RangeQuery over the same queries
// bitwise calls svc.Record() first, which replays each request's cost in
// request-id order after the service closes.
//
// Run with: go run ./examples/servequery
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"repro/vectorio"
)

func main() {
	spec := vectorio.AllNodes()
	scale := spec.DefaultScale * 8

	fs, err := vectorio.NewFS(vectorio.RogerGPFS())
	if err != nil {
		log.Fatal(err)
	}
	f, stats, err := vectorio.GenerateFile(spec, scale, fs, "nodes.wkt", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d points (%0.1f MB real)\n",
		stats.Records, float64(stats.Bytes)/1e6)

	r := rand.New(rand.NewSource(42))
	queries := make([]vectorio.Envelope, 256)
	for i := range queries {
		x := r.Float64()*340 - 170
		y := r.Float64()*160 - 80
		w := 1 + r.Float64()*9
		h := 1 + r.Float64()*9
		queries[i] = vectorio.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}

	cfg := vectorio.Roger(1) // 20 ranks
	cfg.ByteScale = scale
	world := vectorio.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

	svc := vectorio.NewService(cfg.Size())

	// Client side: 8 goroutines share the stream round-robin. They start
	// when the service is ready (every rank's index built and registered)
	// and the last one out closes the service, releasing the parked ranks.
	const clients = 8
	var pairs int64
	var mu sync.Mutex
	var cwg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		cwg.Add(1)
		go func(ci int) {
			defer cwg.Done()
			select {
			case <-svc.Ready():
			case <-svc.Closed():
				return
			}
			for qi := ci; qi < len(queries); qi += clients {
				res, err := svc.Range(uint64(qi), queries[qi])
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				pairs += res.Pairs
				mu.Unlock()
			}
		}(ci)
	}
	go func() {
		cwg.Wait()
		svc.Close()
	}()

	// Rank side: the full pipeline, ending parked behind the service.
	err = vectorio.Run(cfg, func(c *vectorio.Comm) error {
		mf := vectorio.Open(c, f, vectorio.Hints{})
		local, _, err := vectorio.ReadPartition(c, mf, vectorio.WKTParser{}, vectorio.ReadOptions{
			BlockSize: int64(64e6 / scale),
		})
		if err != nil {
			return err
		}
		_, err = vectorio.ServeQuery(c, local, svc, vectorio.JoinOptions{
			GridCells: 1024,
			Envelope:  &world,
		})
		return err
	})
	svc.Close() // release clients parked on Ready if the world failed
	cwg.Wait()
	if err != nil {
		log.Fatal(err)
	}

	var admitted int
	for rank := 0; rank < cfg.Size(); rank++ {
		admitted += svc.Stats(rank).Admitted
	}
	fmt.Printf("\n%d queries served by %d clients on %d ranks:\n",
		len(queries), clients, cfg.Size())
	fmt.Printf("  %d points matched across all queries\n", pairs)
	fmt.Printf("  %d sub-requests routed to the ranks owning the cells they overlap\n", admitted)
}
