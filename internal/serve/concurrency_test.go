package serve

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
)

// The tests in this file pin the concurrency model: the calling client
// evaluates its own request, so a rank is a Session any number of clients
// query at once, not a queue with one worker.

// TestRankEvaluatesTwoRequestsAtOnce holds the first evaluation on a
// one-rank Service inside the Predicate until a second one has entered it.
// With one evaluating goroutine per rank the second request waits behind the
// first and the two never meet.
func TestRankEvaluatesTwoRequestsAtOnce(t *testing.T) {
	var entered atomic.Int32
	both := make(chan struct{})    // two evaluations are inside the predicate
	release := make(chan struct{}) // the deadline passed; let them go
	pred := func(a, b geom.Geometry) bool {
		if entered.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-release:
		}
		return geom.Intersects(a, b)
	}
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g, err := grid.New(world, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := runService(t, buildWorldPred(t, g, 1, coldBoxes(40, 5), pred))
	defer svc.Close()

	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if res, err := svc.Range(uint64(ci), world); err != nil || res.Pairs != 40 {
				t.Errorf("client %d: %d pairs, %v; want all 40 boxes", ci, res.Pairs, err)
			}
		}(ci)
	}
	select {
	case <-both:
	case <-time.After(30 * time.Second):
		t.Error("two requests to one rank were never inside the predicate together: the rank evaluates one at a time")
		close(release)
	}
	wg.Wait()
}

// TestCloseUnderLoad closes a Service while four clients hammer it: every
// call returns the brute-force answer or ErrClosed — and only ErrClosed once
// one has — nobody hangs, and no goroutine outlives the clients.
func TestCloseUnderLoad(t *testing.T) {
	_, geoms, sessions := residentFixture(t, nil)
	queries := residentQueries(256)
	want := make([]int64, len(queries))
	for qi, q := range queries {
		qPoly := q.ToPolygon()
		for _, gg := range geoms {
			if geom.Intersects(gg, qPoly) {
				want[qi]++
			}
		}
	}
	goroutines := runtime.NumGoroutine()
	svc := runService(t, sessions)

	const clients, warm = 4, 500
	var answered atomic.Int64
	warmed := make(chan struct{})
	finished := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			closed := false
			for i := 0; ; i++ {
				qi := (ci + i) % len(queries)
				res, err := svc.Range(uint64(ci)<<32|uint64(i), queries[qi])
				switch {
				case errors.Is(err, ErrClosed):
					if closed {
						return // twice in a row: closed stays closed
					}
					closed = true
				case err != nil:
					t.Errorf("client %d request %d: %v", ci, i, err)
					return
				case closed:
					t.Errorf("client %d request %d answered after ErrClosed", ci, i)
					return
				case res.Pairs != want[qi] || int64(len(res.Matches)) != want[qi]:
					t.Errorf("client %d query %d: %d pairs / %d matches, brute force finds %d",
						ci, qi, res.Pairs, len(res.Matches), want[qi])
					return
				default:
					if answered.Add(1) == warm {
						close(warmed)
					}
				}
			}
		}(ci)
	}
	go func() { wg.Wait(); close(finished) }()

	<-warmed // all four are mid-stream
	svc.Close()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("clients still inside Range 30 s after Close")
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 1000; i++ {
		time.Sleep(time.Millisecond) // let the returned clients finish exiting
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Close, %d before the service existed", n, goroutines)
	}
}

// usedSession builds a Session over a tree holding one sentinel geometry,
// queries it once, and keeps no reference: freed is closed when the
// collector finalizes the sentinel.
//
//go:noinline
func usedSession(t *testing.T) (freed chan struct{}) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	g, err := grid.New(world, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	freed = make(chan struct{})
	sentinel := &geom.Polygon{Shell: geom.Envelope{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}.ToPolygon().Shell}
	runtime.SetFinalizer(sentinel, func(*geom.Polygon) { close(freed) })
	s := NewSession(SessionConfig{Partition: g, Size: 1, Scale: 1, Trees: map[int]*rtree.Tree[geom.Geometry]{
		0: rtree.BulkLoad([]rtree.Item[geom.Geometry]{{Env: geom.EnvelopeOf(sentinel.Shell), Value: sentinel}}),
	}})
	if n := s.Range(world, nil, nil); n != 1 {
		t.Fatalf("Range found %d pairs, want the sentinel", n)
	}
	return freed
}

// TestUsedSessionFreedByOneGC pins that lending a Cursor registers the
// Session nowhere: once the last reference is dropped, the next collection
// frees the index. A sync.Pool embedded in the Session kept it — and every
// tree under it — on the runtime's pool list until the second collection
// after its last use.
func TestUsedSessionFreedByOneGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the collection below is the only one
	freed := usedSession(t)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second): // the finalizer goroutine runs soon after the sweep, not inside GC()
		t.Fatal("a Session that answered one Range is still reachable after its last reference was dropped and one GC ran")
	}
}

// BenchmarkServiceRangeParallel is the concurrent-serving row (ROADMAP, "The
// serve path"): GOMAXPROCS clients (run with -cpu 1,2) querying one default
// Service of one and of two ranks, over a fixture big enough — 50 000
// boxes, 16x16 cells, 10-unit windows — that a request is hundreds of
// microseconds of filter and refine.
func BenchmarkServiceRangeParallel(b *testing.B) {
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	geoms := coldBoxes(50_000, 31)
	queries := make([]geom.Envelope, 64)
	for i := range queries {
		x, y := float64(i*37%80), float64(i*53%80)
		queries[i] = geom.Envelope{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10}
	}
	for _, ranks := range []int{1, 2} {
		svc := runService(b, buildWorld(b, g, ranks, geoms))
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var client atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				id := client.Add(1) << 40
				for i := 0; pb.Next(); i++ {
					res, err := svc.Range(id|uint64(i), queries[i%len(queries)])
					if err != nil || res.Pairs == 0 {
						b.Errorf("Range = %d pairs, %v", res.Pairs, err)
						return
					}
				}
			})
		})
		svc.Close()
	}
}
