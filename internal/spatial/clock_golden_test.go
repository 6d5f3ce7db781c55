package spatial

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/simtime"
)

// goldenSpatial is what one rank observes of one spatial operation: its
// virtual clock bit for bit and the operation's count (geometries indexed
// for a build, candidate pairs matched for a join or query).
type goldenSpatial struct {
	now   uint64
	count int64
}

// TestSpatialClockGolden pins the index and query half of the modelled
// clock bit for bit, the way TestExchangeClockGolden pins the exchange:
// every rank's final virtual clock, its per-kind ledger and the
// operation's count, on 3 ranks of a Comet layout at byte scale 4, for
// BuildIndex, Join and RangeQuery over generated boxes in a 6×6 grid, and
// for ServeQuery with a recording service whose id-ordered replay
// reproduces RangeQuery's charges. A dropped or moved Index or Query
// charge (cellIndexer's inserts, the cursor's filter and refine, Serve's
// replay) fails naming its kind.
//
// Each case runs in a fresh world, so the pinned ledger is the workload's
// own, and each rank's Breakdown must be its named kind sums: Partition
// the Project kind, Comm Encode + Decode + Transport + Wait, Index the
// Index kind, Refine the Query kind, all within 1e-12 relative; Read is
// zero (the input is a slice) and Total is the clock, bit for bit.
func TestSpatialClockGolden(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 110, MaxY: 110}
	rSet, sSet := boxes(240, 61, 6), boxes(200, 62, 8)
	queries := make([]geom.Envelope, 16)
	for i := range queries {
		x, y := float64(i%4)*24, float64(i/4)*24
		queries[i] = geom.Envelope{MinX: x, MinY: y, MaxX: x + 20, MaxY: y + 20}
	}
	opt := JoinOptions{GridCells: 36, Envelope: &world}
	iopt := IndexOptions{GridCells: 36, Envelope: &world}

	cases := []struct {
		name   string
		want   [3]goldenSpatial
		ledger [3]simtime.Ledger
	}{
		{name: "BuildIndex", want: [3]goldenSpatial{
			{0x3f7a8eee07baa80a, 105},
			{0x3f7cd505cb403227, 118},
			{0x3f7b1d62595d7eab, 108},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.00021262041651623397, simtime.Encode: 0.0017916953999999965, simtime.Decode: 0.004219089000000003, simtime.Index: 0.0001915677179780954, simtime.Transport: 8e-06, simtime.Wait: 6.09921999999998e-05},
			{simtime.Project: 0.00021292041651623395, simtime.Encode: 0.0018401195999999964, simtime.Decode: 0.004741452400000005, simtime.Index: 0.00022815529701770716, simtime.Transport: 8e-06, simtime.Wait: 8.443999999999813e-06},
			{simtime.Project: 0.00021212041651623393, simtime.Encode: 0.0017109883999999968, simtime.Decode: 0.004339634400000004, simtime.Index: 0.0002089048211152537, simtime.Transport: 8e-06, simtime.Wait: 0.00014017177142857068},
		}},
		{name: "Join", want: [3]goldenSpatial{
			{0x3f9333cfbebce525, 81},
			{0x3f924e0ecb1d6d04, 68},
			{0x3f91446a18f15966, 66},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.0003905937653485799, simtime.Encode: 0.003276704199999994, simtime.Decode: 0.008518541600000006, simtime.Index: 0.0001915677179780954, simtime.Query: 0.005523966534278371, simtime.Transport: 1.6e-05, simtime.Wait: 0.0008349588857142864},
			{simtime.Project: 0.00039239376534857975, simtime.Encode: 0.003567249399999993, simtime.Decode: 0.008960541400000008, simtime.Index: 0.00022815529701770716, simtime.Query: 0.00469078224916928, simtime.Transport: 1.6e-05, simtime.Wait: 2.0769714285712518e-05},
			{simtime.Project: 0.0003881747601421268, simtime.Encode: 0.003292845599999994, simtime.Decode: 0.007755087400000005, simtime.Index: 0.0002089048211152537, simtime.Query: 0.004500666073974072, simtime.Transport: 1.3999999999999998e-05, simtime.Wait: 0.0007028642337778806},
		}},
		{name: "RangeQuery", want: [3]goldenSpatial{
			{0x3f7f59b0f65e1977, 71},
			{0x3f80d101e83b8687, 71},
			{0x3f7e61d25b037be0, 48},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.00021262041651623397, simtime.Encode: 0.0017916953999999965, simtime.Decode: 0.004219089000000003, simtime.Index: 0.0001915677179780954, simtime.Query: 0.0011699308908784698, simtime.Transport: 8e-06, simtime.Wait: 6.09921999999998e-05},
			{simtime.Project: 0.00021292041651623395, simtime.Encode: 0.0018401195999999964, simtime.Decode: 0.004741452400000005, simtime.Index: 0.00022815529701770716, simtime.Query: 0.0011720583601604248, simtime.Transport: 8e-06, simtime.Wait: 8.443999999999813e-06},
			{simtime.Project: 0.00021212041651623393, simtime.Encode: 0.0017109883999999968, simtime.Decode: 0.004339634400000004, simtime.Index: 0.0002089048211152537, simtime.Query: 0.0007976889850163664, simtime.Transport: 8e-06, simtime.Wait: 0.00014017177142857068},
		}},
		{name: "Serve", want: [3]goldenSpatial{
			{0x3f7f59b0f65e1977, 71},
			{0x3f80d101e83b8687, 71},
			{0x3f7e61d25b037be0, 48},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.00021262041651623397, simtime.Encode: 0.0017916953999999965, simtime.Decode: 0.004219089000000003, simtime.Index: 0.0001915677179780954, simtime.Query: 0.0011699308908784698, simtime.Transport: 8e-06, simtime.Wait: 6.09921999999998e-05},
			{simtime.Project: 0.00021292041651623395, simtime.Encode: 0.0018401195999999964, simtime.Decode: 0.004741452400000005, simtime.Index: 0.00022815529701770716, simtime.Query: 0.0011720583601604248, simtime.Transport: 8e-06, simtime.Wait: 8.443999999999813e-06},
			{simtime.Project: 0.00021212041651623393, simtime.Encode: 0.0017109883999999968, simtime.Decode: 0.004339634400000004, simtime.Index: 0.0002089048211152537, simtime.Query: 0.0007976889850163664, simtime.Transport: 8e-06, simtime.Wait: 0.00014017177142857068},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var svc *serve.Service
			var clients sync.WaitGroup
			if tc.name == "Serve" {
				svc = serve.NewService(3)
				svc.Record()
				clients.Add(1)
				go func() {
					defer clients.Done()
					defer svc.Close()
					<-svc.Ready()
					for qi, q := range queries {
						if _, err := svc.Range(uint64(qi), q); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			cc := cluster.Comet(3)
			cc.RanksPerNode = 1
			cc.ByteScale = 4
			var got [3]goldenSpatial
			var ledger [3]simtime.Ledger
			var bds [3]Breakdown
			err := mpi.Run(cc, func(c *mpi.Comm) error {
				local := scatter(rSet, c.Rank(), c.Size())
				var bd Breakdown
				var err error
				count := &bd.Pairs
				switch tc.name {
				case "BuildIndex":
					_, _, bd, err = BuildIndex(c, local, iopt)
					count = &bd.Indexed
				case "Join":
					bd, err = Join(c, local, scatter(sSet, c.Rank(), c.Size()), opt)
				case "RangeQuery":
					bd, err = RangeQuery(c, local, queries, opt)
				case "Serve":
					bd, err = ServeQuery(c, local, svc, opt)
				}
				if err != nil {
					return err
				}
				got[c.Rank()] = goldenSpatial{math.Float64bits(c.Now()), *count}
				ledger[c.Rank()] = c.Ledger()
				bds[c.Rank()] = bd
				return nil
			})
			if svc != nil {
				svc.Close()
				clients.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if got[r] != tc.want[r] {
					t.Errorf("rank %d = %#v\n\twant %#v", r, got[r], tc.want[r])
				}
				if d := ledger[r].Diff(tc.ledger[r]); d != "" {
					t.Errorf("rank %d ledger: %s\n\tgot %#v", r, d, ledger[r])
				}
				now := math.Float64frombits(got[r].now)
				if sum := ledger[r].Sum(); math.Abs(sum-now) > 1e-12*now {
					t.Errorf("rank %d ledger sums to %v, clock reads %v", r, sum, now)
				}
				checkViews(t, r, now, bds[r], tc.ledger[r])
			}
		})
	}
}

// checkViews fails when rank r's breakdown is not the named kind sums of
// its workload's pinned ledger l (see TestSpatialClockGolden).
func checkViews(t *testing.T, r int, now float64, bd Breakdown, l simtime.Ledger) {
	t.Helper()
	views := []struct {
		name      string
		got, want float64
	}{
		{"Partition", bd.Partition, l[simtime.Project]},
		{"Comm", bd.Comm, l[simtime.Encode] + l[simtime.Decode] + l[simtime.Transport] + l[simtime.Wait]},
		{"Index", bd.Index, l[simtime.Index]},
		{"Refine", bd.Refine, l[simtime.Query]},
	}
	for _, v := range views {
		if math.Abs(v.got-v.want) > 1e-12*v.want {
			t.Errorf("rank %d Breakdown.%s = %v, its kinds sum to %v", r, v.name, v.got, v.want)
		}
	}
	if bd.Read != 0 || bd.Total != now {
		t.Errorf("rank %d Breakdown Read %v, Total %v; want 0 and the clock %v", r, bd.Read, bd.Total, now)
	}
}
