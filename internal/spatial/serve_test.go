package spatial

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/serve"
)

// TestServeQueryChargesOnlyWhatIsRecorded pins the two services against
// each other and against the batch: a default Service answers every request
// exactly as a recording one does, holds no replay, and leaves the query
// phase free on the virtual clock (Refine == 0); with the recorder
// installed the replay charges the batch RangeQuery's refine time, bitwise.
func TestServeQueryChargesOnlyWhatIsRecorded(t *testing.T) {
	const ranks = 3
	data := boxes(240, 61, 6)
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 110, MaxY: 110}
	queries := make([]geom.Envelope, 16)
	for i := range queries {
		x, y := float64(i%4)*24, float64(i/4)*24
		queries[i] = geom.Envelope{MinX: x, MinY: y, MaxX: x + 20, MaxY: y + 20}
	}
	opt := JoinOptions{GridCells: 36, Envelope: &world}

	var batchRefine [ranks]float64
	var batchPairs [ranks]int64
	if err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		bd, err := RangeQuery(c, scatter(data, c.Rank(), c.Size()), queries, opt)
		batchRefine[c.Rank()], batchPairs[c.Rank()] = bd.Refine, bd.Pairs
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if batchRefine[0]+batchRefine[1]+batchRefine[2] == 0 {
		t.Fatal("batch query charged no refine time; fixture too sparse")
	}

	for _, record := range []bool{false, true} {
		svc := serve.NewService(ranks)
		if record {
			svc.Record()
		}
		var served int64
		var clients sync.WaitGroup
		clients.Add(1)
		go func() {
			defer clients.Done()
			defer svc.Close()
			<-svc.Ready()
			for qi, q := range queries {
				res, err := svc.Range(uint64(qi), q)
				if err != nil {
					t.Error(err)
					return
				}
				served += res.Pairs
			}
		}()
		var refine [ranks]float64
		var pairs [ranks]int64
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			bd, err := ServeQuery(c, scatter(data, c.Rank(), c.Size()), svc, opt)
			refine[c.Rank()], pairs[c.Rank()] = bd.Refine, bd.Pairs
			return err
		})
		svc.Close()
		clients.Wait()
		if err != nil {
			t.Fatal(err)
		}

		var total int64
		for r := 0; r < ranks; r++ {
			total += pairs[r]
			if pairs[r] != batchPairs[r] {
				t.Errorf("record=%v rank %d: served %d pairs, batch %d", record, r, pairs[r], batchPairs[r])
			}
			switch {
			case record && refine[r] != batchRefine[r]:
				t.Errorf("rank %d: replayed refine time %v, batch %v", r, refine[r], batchRefine[r])
			case !record && refine[r] != 0:
				t.Errorf("rank %d: default service charged %v virtual seconds for serving", r, refine[r])
			case !record && len(svc.Matches(r))+len(svc.DrainCharges(r)) != 0:
				t.Errorf("rank %d: default service holds a replay", r)
			}
		}
		if total == 0 || served != total {
			t.Errorf("record=%v: clients received %d pairs, ranks counted %d", record, served, total)
		}
	}
}
