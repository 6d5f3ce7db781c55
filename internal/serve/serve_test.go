package serve

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/wkt"
)

// buildWorld hand-builds a size-rank distributed index over a uniform grid:
// every geometry is replicated into the cells its MBR overlaps and each
// rank bulk-loads the cells round-robin declustering assigns it. The
// geometries are struct literals whose envelope caches are deliberately
// cold — NewSession's priming pass is what makes querying them from many
// goroutines race-free, and the -race concurrency tests below depend on it.
func buildWorld(t testing.TB, g grid.Partition, size int, geoms []geom.Geometry) []*Session {
	return buildWorldPred(t, g, size, geoms, nil)
}

// buildWorldPred is buildWorld with a custom refinement predicate.
func buildWorldPred(t testing.TB, g grid.Partition, size int, geoms []geom.Geometry, pred func(a, b geom.Geometry) bool) []*Session {
	t.Helper()
	cells := make(map[int][]rtree.Item[geom.Geometry])
	for _, gg := range geoms {
		var env geom.Envelope
		switch v := gg.(type) {
		case *geom.Polygon:
			env = geom.EnvelopeOf(v.Shell) // no Envelope() call: cache stays cold
		case geom.Point:
			env = geom.Envelope{MinX: v.X, MinY: v.Y, MaxX: v.X, MaxY: v.Y}
		default:
			t.Fatalf("unsupported fixture geometry %T", gg)
		}
		for _, cell := range g.CellsFor(env) {
			cells[cell] = append(cells[cell], rtree.Item[geom.Geometry]{Env: env, Value: gg})
		}
	}
	sessions := make([]*Session, size)
	for r := 0; r < size; r++ {
		trees := make(map[int]*rtree.Tree[geom.Geometry])
		for cell, items := range cells {
			if grid.MappingOf(g)(cell, size) == r {
				trees[cell] = rtree.BulkLoad(items)
			}
		}
		sessions[r] = NewSession(SessionConfig{
			Partition: g, Rank: r, Size: size, Scale: 1, Trees: trees, Predicate: pred,
		})
	}
	return sessions
}

// coldBoxes builds n deterministic rectangles as cache-cold polygon literals.
func coldBoxes(n int, seed uint64) []geom.Geometry {
	out := make([]geom.Geometry, n)
	s := seed
	next := func() float64 { // xorshift: deterministic without math/rand plumbing
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%9000) / 100
	}
	for i := range out {
		x, y := next(), next()
		e := geom.Envelope{MinX: x, MinY: y, MaxX: x + 1 + next()/10, MaxY: y + 1 + next()/10}
		p := e.ToPolygon()
		out[i] = &geom.Polygon{Shell: p.Shell} // rebuild as a cache-cold literal
	}
	return out
}

func answerSet(res Result) []string {
	out := make([]string, 0, len(res.Matches))
	for _, m := range res.Matches {
		out = append(out, wkt.Format(m))
	}
	sort.Strings(out)
	return out
}

// runService registers the sessions of one hand-built world with a fresh
// default Service — no replay recorder — and returns it ready for client
// traffic.
func runService(t testing.TB, sessions []*Session) *Service {
	return startService(t, sessions, false)
}

// startService is runService with the replay recorder optionally installed.
func startService(t testing.TB, sessions []*Session, record bool) *Service {
	t.Helper()
	svc := NewService(len(sessions))
	if record {
		svc.Record()
	}
	for r, s := range sessions {
		svc.Register(r, s)
	}
	select {
	case <-svc.Ready():
	default:
		t.Fatal("service not ready after all ranks registered")
	}
	return svc
}

// TestConcurrentQueriesDeterministic hammers one service with many client
// goroutines issuing the same query set and requires every answer to be
// identical to the single-threaded baseline — run under -race, this is also
// the proof that the priming pass makes concurrent envelope reads safe.
func TestConcurrentQueriesDeterministic(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g, err := grid.New(world, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Two worlds over bitwise-identical but distinct geometry instances:
	// the baseline world is queried serially (which itself warms envelope
	// caches), while the concurrent world takes its first queries from 16
	// goroutines at once — so the only thing standing between the cold
	// caches and a concurrent first write is NewSession's priming pass.
	const ranks = 3
	baseSessions := buildWorld(t, g, ranks, coldBoxes(300, 99))
	sessions := buildWorld(t, g, ranks, coldBoxes(300, 99))

	queries := make([]geom.Envelope, 24)
	s := uint64(7)
	for i := range queries {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x := float64(s % 85)
		y := float64((s >> 8) % 85)
		queries[i] = geom.Envelope{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10}
	}

	// Single-threaded baseline over a fresh service.
	baseline := make([][]string, len(queries))
	basePairs := make([]int64, len(queries))
	svc0 := runService(t, baseSessions)
	for qi, q := range queries {
		res, err := svc0.Range(uint64(qi), q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[qi] = answerSet(res)
		basePairs[qi] = res.Pairs
	}
	svc0.Close()
	var nonEmpty int
	for _, b := range baseline {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(queries)/2 {
		t.Fatalf("only %d/%d baseline queries matched; fixture too sparse", nonEmpty, len(queries))
	}

	// The same sessions hammered by 16 goroutines x 3 repetitions each.
	svc := runService(t, sessions)
	const clients = 16
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for qi, q := range queries {
					id := uint64((ci*3+rep)*len(queries) + qi)
					res, err := svc.Range(id, q)
					if err != nil {
						errCh <- fmt.Errorf("client %d query %d: %w", ci, qi, err)
						return
					}
					if res.Pairs != basePairs[qi] {
						errCh <- fmt.Errorf("client %d query %d: %d pairs, want %d", ci, qi, res.Pairs, basePairs[qi])
						return
					}
					if got := answerSet(res); !reflect.DeepEqual(got, baseline[qi]) {
						errCh <- fmt.Errorf("client %d query %d: answers diverged from baseline", ci, qi)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	svc.Close()

	// Accounting: every rank evaluated sub-requests, and Rounds (kept equal
	// to Admitted) never exceeds them.
	for r := 0; r < ranks; r++ {
		st := svc.Stats(r)
		if st.Rounds > st.Admitted {
			t.Errorf("rank %d: %d rounds exceed %d admissions", r, st.Rounds, st.Admitted)
		}
		if st.Admitted == 0 {
			t.Errorf("rank %d admitted nothing under %d clients", r, clients)
		}
	}
}

// TestSessionConcurrentRangeRaceFree queries one Session directly from many
// goroutines at once — the read-mostly contract NewSession's priming pass
// exists for. The geometries enter the tree with cold envelope caches;
// without priming, the first concurrent evaluations would all hit the lazy
// cache write on shared instances (the dedup rule reads every candidate's
// envelope) and -race flags it. The guarantee is the Session's, so it is
// pinned on the direct-Session path, with no Service in between.
func TestSessionConcurrentRangeRaceFree(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g, err := grid.New(world, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// One rank owning everything: every goroutine's query reaches the same
	// trees and the same shared geometry instances.
	sess := buildWorld(t, g, 1, coldBoxes(400, 17))[0]

	// One query per goroutine, several goroutines per query, all released
	// together: every goroutine's whole run happens while its peers are on
	// their cache-cold first evaluation, so an unprimed lazy write cannot
	// hide behind later same-goroutine reads.
	queries := []geom.Envelope{
		{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50},
		{MinX: 25, MinY: 25, MaxX: 75, MaxY: 75},
		{MinX: 50, MinY: 50, MaxX: 100, MaxY: 100},
		{MinX: 0, MinY: 50, MaxX: 50, MaxY: 100},
	}
	const perQuery = 4
	results := make([][]int64, len(queries))
	var start, wg sync.WaitGroup
	start.Add(1)
	for qi := range queries {
		results[qi] = make([]int64, perQuery)
		for rep := 0; rep < perQuery; rep++ {
			wg.Add(1)
			go func(qi, rep int) {
				defer wg.Done()
				start.Wait()
				results[qi][rep] = sess.Range(queries[qi], func(float64) {}, nil)
			}(qi, rep)
		}
	}
	start.Done()
	wg.Wait()

	var total int64
	for qi := range queries {
		total += results[qi][0]
		for rep := 1; rep < perQuery; rep++ {
			if results[qi][rep] != results[qi][0] {
				t.Errorf("query %d: goroutine %d counted %d pairs, goroutine 0 counted %d",
					qi, rep, results[qi][rep], results[qi][0])
			}
		}
	}
	if total == 0 {
		t.Fatal("no pairs matched; fixture too sparse")
	}
}

// TestRangeRoutesOnlyOwningRanks pins the dispatcher: a query confined to
// one rank's cells must be evaluated on that rank alone.
func TestRangeRoutesOnlyOwningRanks(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g, err := grid.New(world, 4, 1) // 4 cells in a row, round-robin over 2 ranks
	if err != nil {
		t.Fatal(err)
	}
	geoms := []geom.Geometry{
		geom.Point{X: 10, Y: 50}, // cell 0 -> rank 0
		geom.Point{X: 35, Y: 50}, // cell 1 -> rank 1
	}
	svc := runService(t, buildWorld(t, g, 2, geoms))
	defer svc.Close()

	// Strictly inside cell 0: rank 1 must see no sub-request.
	res, err := svc.Range(0, geom.Envelope{MinX: 5, MinY: 40, MaxX: 15, MaxY: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 1 {
		t.Fatalf("cell-0 query: %d pairs, want 1", res.Pairs)
	}
	if st := svc.Stats(1); st.Admitted != 0 {
		t.Errorf("rank 1 admitted %d sub-requests for a cell-0 query", st.Admitted)
	}
	if st := svc.Stats(0); st.Admitted != 1 {
		t.Errorf("rank 0 admitted %d sub-requests, want 1", st.Admitted)
	}
}

// TestDrainChargesDeterministic runs the same traffic through two services
// — one serial, one with interleaved submission order — and requires the
// drained charge sequences to be identical: the replay is keyed by request
// id, so evaluation order must not leak into the virtual clock. It also pins
// DrainCharges' one-pass fill: ascending request id, each request's charges
// in evaluation order, the record reset by the read.
func TestDrainChargesDeterministic(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g, err := grid.New(world, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 2
	sessions := buildWorld(t, g, ranks, coldBoxes(120, 41))
	queries := []geom.Envelope{
		{MinX: 5, MinY: 5, MaxX: 30, MaxY: 30},
		{MinX: 20, MinY: 40, MaxX: 60, MaxY: 70},
		{MinX: 50, MinY: 10, MaxX: 90, MaxY: 45},
		{MinX: 0, MinY: 60, MaxX: 40, MaxY: 95},
	}

	drained := make([][][]float64, 2)
	for variant := range drained {
		svc := startService(t, sessions, true)
		if variant == 0 {
			for qi, q := range queries {
				if _, err := svc.Range(uint64(qi), q); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var wg sync.WaitGroup
			for qi := len(queries) - 1; qi >= 0; qi-- { // reversed, concurrent
				wg.Add(1)
				go func(qi int) {
					defer wg.Done()
					if _, err := svc.Range(uint64(qi), queries[qi]); err != nil {
						t.Error(err)
					}
				}(qi)
			}
			wg.Wait()
		}
		svc.Close()
		drained[variant] = make([][]float64, ranks)
		for r := 0; r < ranks; r++ {
			drained[variant][r] = svc.DrainCharges(r)
			if again := svc.DrainCharges(r); len(again) != 0 {
				t.Errorf("rank %d: second DrainCharges returned %d charges, want the record reset", r, len(again))
			}
		}
	}
	for r := 0; r < ranks; r++ {
		if !reflect.DeepEqual(drained[0][r], drained[1][r]) {
			t.Errorf("rank %d: charge replay differs between serial and interleaved submission", r)
		}
		if len(drained[0][r]) == 0 {
			t.Errorf("rank %d recorded no charges", r)
		}
		// The service's sequence must be the batch loop's: the same queries
		// in id order through a Cursor with costs taken inline.
		var batch []float64
		cu := sessions[r].Cursor()
		for _, q := range queries {
			cu.Range(q, func(d float64) { batch = append(batch, d) }, nil)
		}
		if !reflect.DeepEqual(drained[0][r], batch) {
			t.Errorf("rank %d: drained charges differ from the batch loop's sequence", r)
		}
	}
}

// TestRangeAfterCloseFails pins the shutdown contract.
func TestRangeAfterCloseFails(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	g, err := grid.New(world, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := runService(t, buildWorld(t, g, 1, []geom.Geometry{geom.Point{X: 5, Y: 5}}))
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Range(0, world); err != ErrClosed {
		t.Errorf("Range after Close = %v, want ErrClosed", err)
	}
	select {
	case <-svc.Closed():
	default:
		t.Error("Closed() not signalled after Close")
	}
}

// TestNewSessionChecksStoredEnvelopes pins the contract refinement relies
// on: a geometry stored under anything but its own envelope, bit for bit —
// one ulp off, or a zero of the other sign — panics NewSession, naming the
// cell.
func TestNewSessionChecksStoredEnvelopes(t *testing.T) {
	g, err := grid.New(geom.Envelope{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	poly := &geom.Polygon{Shell: geom.Envelope{MinX: 0, MinY: 1, MaxX: 3, MaxY: 4}.ToPolygon().Shell}
	env := geom.EnvelopeOf(poly.Shell)
	ulp, negZero := env, env
	ulp.MaxX = math.Nextafter(env.MaxX, math.Inf(1))
	negZero.MinX = math.Copysign(0, -1)
	for name, stored := range map[string]geom.Envelope{"one ulp": ulp, "negative zero": negZero} {
		t.Run(name, func(t *testing.T) {
			trees := map[int]*rtree.Tree[geom.Geometry]{
				0: rtree.BulkLoad([]rtree.Item[geom.Geometry]{{Env: env, Value: poly}}),
				3: rtree.BulkLoad([]rtree.Item[geom.Geometry]{{Env: env, Value: poly}, {Env: stored, Value: poly}}),
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "cell 3 ") {
					t.Errorf("NewSession panicked with %q, want a message naming cell 3", msg)
				}
			}()
			NewSession(SessionConfig{Partition: g, Rank: 0, Size: 1, Trees: trees})
		})
	}
}

// TestCustomPredicateSeesEveryCandidate pins the rectangle shortcut as the
// stock predicate's: a caller's Predicate is asked about every candidate
// that passes the duplicate rule, those the rectangle contains included,
// and its answer — here always false — is the answer.
func TestCustomPredicateSeesEveryCandidate(t *testing.T) {
	calls := 0
	g, _, sessions := residentFixture(t, func(a, b geom.Geometry) bool {
		calls++
		return false
	})
	for _, q := range []geom.Envelope{
		{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		{MinX: 10, MinY: 20, MaxX: 60, MaxY: 45},
	} {
		want, contained := 0, 0
		for r, s := range sessions {
			for _, cell := range g.CellsFor(q) {
				tr := s.trees[cell]
				if grid.MappingOf(g)(cell, len(sessions)) != r || tr == nil {
					continue
				}
				for _, c := range tr.AppendQuery(nil, q) {
					if grid.PairRefCell(g, c.Env, q) == cell {
						want++
						if q.Contains(c.Env) {
							contained++
						}
					}
				}
			}
		}
		if contained == 0 {
			t.Fatalf("query %+v contains no candidate: the fixture proves nothing", q)
		}
		calls = 0
		var pairs int64
		for _, s := range sessions {
			pairs += s.Range(q, nil, nil)
		}
		if pairs != 0 || calls != want {
			t.Errorf("query %+v: %d pairs and %d predicate calls, want 0 and %d (%d contained)", q, pairs, calls, want, contained)
		}
	}
}
