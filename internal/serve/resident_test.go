package serve

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
)

// The tests in this file pin what makes the default Service fit to be left
// running: it retains nothing per answered request, a bad request fails
// alone, and a request's allocations are its plan and its answer.

// residentFixture is a small two-rank world: 60 boxes over a 4x4 grid of
// [0,100]², round-robin over the ranks.
func residentFixture(t testing.TB, pred func(a, b geom.Geometry) bool) (grid.Partition, []geom.Geometry, []*Session) {
	t.Helper()
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	geoms := coldBoxes(60, 23)
	return g, geoms, buildWorldPred(t, g, 2, geoms, pred)
}

// residentQueries is a deterministic stream of n rectangles with 5-15 unit
// sides, so a request touches one to four cells.
func residentQueries(n int) []geom.Envelope {
	out := make([]geom.Envelope, n)
	s := uint64(11)
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x, y := float64(s%85), float64((s>>8)%85)
		out[i] = geom.Envelope{MinX: x, MinY: y, MaxX: x + 5 + float64((s>>16)%10), MaxY: y + 5 + float64((s>>24)%10)}
	}
	return out
}

// TestPanicContained pins the failure containment of an evaluation: a
// Predicate that panics on one marker geometry fails exactly the requests
// that reach the marker — each with an error naming the panic — while every
// other request, from four concurrent clients, is answered as if nothing
// had happened, and the rank keeps serving afterwards.
func TestPanicContained(t *testing.T) {
	var marker geom.Geometry
	pred := func(a, b geom.Geometry) bool {
		if a == marker {
			panic("marker geometry reached")
		}
		return geom.Intersects(a, b)
	}
	_, geoms, sessions := residentFixture(t, pred)
	marker = geoms[0]
	mEnv := marker.Envelope()
	queries := residentQueries(400)

	// The oracle: the same world with the stock predicate.
	_, _, cleanSessions := residentFixture(t, nil)
	clean := runService(t, cleanSessions)
	defer clean.Close()
	want := make([]Result, len(queries))
	var doomed int
	for qi, q := range queries {
		res, err := clean.Range(uint64(qi), q)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = res
		if q.Intersects(mEnv) {
			doomed++
		}
	}
	if doomed == 0 || doomed == len(queries) {
		t.Fatalf("%d/%d queries reach the marker; fixture must mix both kinds", doomed, len(queries))
	}

	svc := runService(t, sessions)
	defer svc.Close()
	// A client that survives a panic out of Range (net/http-style recovery)
	// is what turns an uncontained one into a wedge rather than a crash.
	call := func(id uint64, q geom.Envelope) (res Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic escaped Range: %v", p)
			}
		}()
		return svc.Range(id, q)
	}
	const clients = 4
	finished := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for qi := ci; qi < len(queries); qi += clients {
				res, err := call(uint64(qi), queries[qi])
				switch {
				case queries[qi].Intersects(mEnv):
					if err == nil || !strings.Contains(err.Error(), "evaluation panicked") || !strings.Contains(err.Error(), "marker geometry reached") {
						t.Errorf("query %d reaches the marker: err = %v, want a contained panic naming it", qi, err)
					}
				case err != nil:
					t.Errorf("query %d misses the marker: %v", qi, err)
				case res.Pairs != want[qi].Pairs || len(res.Matches) != len(want[qi].Matches):
					t.Errorf("query %d: %d pairs / %d matches, want %d / %d",
						qi, res.Pairs, len(res.Matches), want[qi].Pairs, len(want[qi].Matches))
				}
			}
		}(ci)
	}
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("clients still blocked after 30 s: a panicking evaluation wedged a rank")
	}

	// Both ranks still serve: a whole-world request that reaches the marker
	// fails, and one that stays clear of it is answered by both.
	if _, err := svc.Range(1<<32, geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}); err == nil {
		t.Error("whole-world request reached the marker and did not fail")
	}
	before := [2]int{svc.Stats(0).Admitted, svc.Stats(1).Admitted}
	clear := geom.Envelope{MinX: mEnv.MaxX + 0.5, MinY: 0, MaxX: 100, MaxY: 100}
	if mEnv.MaxX > 60 {
		clear = geom.Envelope{MinX: 0, MinY: 0, MaxX: mEnv.MinX - 0.5, MaxY: 100}
	}
	if _, err := svc.Range(1<<32+1, clear); err != nil {
		t.Errorf("request clear of the marker after the panics: %v", err)
	}
	for r := range before {
		if got := svc.Stats(r).Admitted; got != before[r]+1 {
			t.Errorf("rank %d admitted %d sub-requests for the final request, want 1", r, got-before[r])
		}
	}
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveBytes is the heap the last collection marked live, after forcing one.
func liveBytes() int64 {
	runtime.GC()
	metrics.Read(liveHeap)
	return int64(liveHeap[0].Value.Uint64())
}

// TestSoakRetainsNothing drives 200k requests from four clients through a
// default Service and requires its memory to be a function of its data,
// not of its uptime: the live heap ends within 1 MB of where registration
// left it (a service that kept every answer for a replay grew by ~100 B
// and one map entry per request here), and no goroutine outlives Close.
func TestSoakRetainsNothing(t *testing.T) {
	_, _, sessions := residentFixture(t, nil)
	queries := residentQueries(512)
	goroutines := runtime.NumGoroutine()
	svc := runService(t, sessions)
	base := liveBytes()

	const clients, perClient = 4, 50_000
	var pairs [clients]int64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := svc.Range(uint64(ci*perClient+i), queries[(ci+i)%len(queries)])
				if err != nil {
					t.Error(err)
					return
				}
				pairs[ci] += res.Pairs
			}
		}(ci)
	}
	wg.Wait()

	if grown := liveBytes() - base; grown > 1<<20 {
		t.Errorf("live heap grew %d bytes over %d requests; a resident service must retain nothing per request", grown, clients*perClient)
	}
	var served, counted int64
	for _, p := range pairs {
		served += p
	}
	for r := range sessions {
		counted += svc.Stats(r).Pairs
	}
	if served == 0 || served != counted {
		t.Errorf("clients received %d pairs, ranks counted %d", served, counted)
	}
	for r := range sessions {
		if n := len(svc.DrainCharges(r)) + len(svc.Matches(r)); n != 0 {
			t.Errorf("rank %d: default service holds %d replay entries", r, n)
		}
	}

	svc.Close()
	for i := 0; runtime.NumGoroutine() > goroutines && i < 1000; i++ {
		time.Sleep(time.Millisecond) // let the returned clients finish exiting
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Close, %d before the service existed", n, goroutines)
	}
}

// TestRecorderOnEqualsOff pins that the replay recorder only observes: the
// same request stream through a default and a recording Service over the
// same sessions returns identical Results and leaves identical Stats; the
// default one holds no replay at all, the recording one holds every
// request's matches — the very ones it returned — and its charges.
func TestRecorderOnEqualsOff(t *testing.T) {
	_, _, sessions := residentFixture(t, nil)
	queries := residentQueries(200)
	off, on := runService(t, sessions), startService(t, sessions, true)
	defer off.Close()
	defer on.Close()

	var pairs int64
	for qi, q := range queries {
		a, errA := off.Range(uint64(qi), q)
		b, errB := on.Range(uint64(qi), q)
		if errA != nil || errB != nil {
			t.Fatalf("query %d: off err %v, on err %v", qi, errA, errB)
		}
		// Identity, not value: both services serve the sessions' own geometries.
		if a.ID != b.ID || a.Pairs != b.Pairs || !slices.Equal(a.Matches, b.Matches) {
			t.Fatalf("query %d: recorder off answered %d pairs, on %d, or the matches differ", qi, a.Pairs, b.Pairs)
		}
		if int64(len(a.Matches)) != a.Pairs {
			t.Fatalf("query %d: %d matches for %d pairs", qi, len(a.Matches), a.Pairs)
		}
		pairs += a.Pairs
		// The record attributes the returned matches to ranks: per-rank
		// lists in rank-of-first-cell order concatenate to the Result.
		var recorded int
		for r := range sessions {
			recorded += len(on.Matches(r)[uint64(qi)])
		}
		if recorded != len(b.Matches) {
			t.Fatalf("query %d: recorder holds %d matches, Result has %d", qi, recorded, len(b.Matches))
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs matched; fixture too sparse")
	}
	for r := range sessions {
		if off.Stats(r) != on.Stats(r) {
			t.Errorf("rank %d: stats %+v with the recorder off, %+v with it on", r, off.Stats(r), on.Stats(r))
		}
		if len(off.Matches(r)) != 0 || len(off.DrainCharges(r)) != 0 {
			t.Errorf("rank %d: default service holds a replay", r)
		}
		if len(on.Matches(r)) == 0 || len(on.DrainCharges(r)) == 0 {
			t.Errorf("rank %d: recording service holds no replay", r)
		}
	}
}

// TestRecordAfterRegisterPanics pins the one ordering rule of the recorder.
func TestRecordAfterRegisterPanics(t *testing.T) {
	_, _, sessions := residentFixture(t, nil)
	svc := runService(t, sessions)
	defer svc.Close()
	defer func() {
		if recover() == nil {
			t.Error("Record after Register did not panic")
		}
	}()
	svc.Record()
}

// serviceRangeCases are the request shapes of the allocation budget and of
// BenchmarkServiceRange, over residentFixture's 4x4 grid of 25-unit cells
// (cell c = row*4+col belongs to rank c%2).
var serviceRangeCases = []struct {
	name    string
	q       geom.Envelope
	targets int
	empty   bool
	// budget is the allocations one Range call may make: the plan (cell
	// list, target ranks, probe polygon and its shell) plus one exact-size
	// answer per target that matched, plus one merge when a second target's
	// matches do not fit behind the first's — and one to spare.
	budget float64
}{
	{name: "empty", q: geom.Envelope{MinX: 200, MinY: 200, MaxX: 210, MaxY: 210}, targets: 1, empty: true, budget: 5},
	{name: "one cell", q: geom.Envelope{MinX: 26, MinY: 26, MaxX: 49, MaxY: 49}, targets: 1, budget: 6},
	{name: "four cells, two ranks", q: geom.Envelope{MinX: 30, MinY: 30, MaxX: 70, MaxY: 70}, targets: 2, budget: 8},
}

// TestRangeAllocBudget pins a served request's allocations at its plan and
// its answer: nothing per candidate, per cell or per borrowed Cursor.
func TestRangeAllocBudget(t *testing.T) {
	_, _, sessions := residentFixture(t, nil)
	svc := runService(t, sessions)
	defer svc.Close()
	for _, tc := range serviceRangeCases {
		before := svc.Stats(0).Admitted + svc.Stats(1).Admitted
		res, err := svc.Range(0, tc.q) // also grows the ranks' idle cursors to working size
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.Stats(0).Admitted + svc.Stats(1).Admitted - before; got != tc.targets {
			t.Fatalf("%s: routed to %d ranks, want %d", tc.name, got, tc.targets)
		}
		if (res.Pairs == 0) != tc.empty {
			t.Fatalf("%s: %d pairs", tc.name, res.Pairs)
		}
		id := uint64(1)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := svc.Range(id, tc.q); err != nil {
				t.Fatal(err)
			}
			id++
		})
		if allocs > tc.budget {
			t.Errorf("%s: %.1f allocations per Range, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// BenchmarkServiceRange is one request through a default Service, by shape:
// allocs/op is the observable (TestRangeAllocBudget holds the hard budget).
func BenchmarkServiceRange(b *testing.B) {
	_, _, sessions := residentFixture(b, nil)
	svc := runService(b, sessions)
	defer svc.Close()
	for _, tc := range serviceRangeCases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := svc.Range(uint64(i), tc.q)
				if err != nil || (res.Pairs == 0) != tc.empty {
					b.Fatalf("Range = %d pairs, %v", res.Pairs, err)
				}
			}
		})
	}
}
