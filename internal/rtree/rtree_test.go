package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func randEnv(r *rand.Rand) geom.Envelope {
	x := r.Float64() * 1000
	y := r.Float64() * 1000
	return geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*50, MaxY: y + r.Float64()*50}
}

// randItems builds n items with random envelopes, valued by their index.
func randItems(r *rand.Rand, n int) []Item[int] {
	items := make([]Item[int], n)
	for i := range items {
		items[i] = Item[int]{Env: randEnv(r), Value: i}
	}
	return items
}

// bruteQuery is the oracle: linear scan.
func bruteQuery(items []Item[int], q geom.Envelope) []int {
	var out []int
	for _, it := range items {
		if it.Env.Intersects(q) {
			out = append(out, it.Value)
		}
	}
	sort.Ints(out)
	return out
}

func sortedQuery(t *Tree[int], q geom.Envelope) []int {
	out := t.Query(q)
	sort.Ints(out)
	return out
}

func TestEmptyTree(t *testing.T) {
	for name, tr := range map[string]*Tree[string]{"BulkLoad(nil)": BulkLoad[string](nil), "zero value": {}} {
		if tr.Len() != 0 {
			t.Errorf("%s: Len = %d", name, tr.Len())
		}
		q := geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
		if got := tr.Query(q); len(got) != 0 {
			t.Errorf("%s: query on empty tree returned %v", name, got)
		}
		if got := tr.AppendQuery(nil, q); len(got) != 0 {
			t.Errorf("%s: AppendQuery on empty tree returned %v", name, got)
		}
		if !tr.Envelope().IsEmpty() {
			t.Errorf("%s: empty tree envelope should be empty", name)
		}
	}
}

func TestQuerySmall(t *testing.T) {
	tr := BulkLoad([]Item[string]{
		{Env: geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Value: "a"},
		{Env: geom.Envelope{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}, Value: "b"},
		{Env: geom.Envelope{MinX: 0.5, MinY: 0.5, MaxX: 2, MaxY: 2}, Value: "c"},
	})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Query(geom.Envelope{MinX: 0.9, MinY: 0.9, MaxX: 1.5, MaxY: 1.5})
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("query = %v, want [a c]", got)
	}
	if n := len(tr.Query(geom.Envelope{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101})); n != 0 {
		t.Errorf("far query returned %d items", n)
	}
	if want := (geom.Envelope{MinX: 0, MinY: 0, MaxX: 11, MaxY: 11}); tr.Envelope() != want {
		t.Errorf("tree envelope = %+v, want %+v", tr.Envelope(), want)
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	items := randItems(r, 5000)
	tr := BulkLoad(items)
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for q := 0; q < 100; q++ {
		query := randEnv(r).ExpandBy(40)
		want := bruteQuery(items, query)
		got := sortedQuery(tr, query)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d mismatch at %d", q, i)
			}
		}
	}
}

func TestBulkLoadSizes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 256, 257, 1000, 4097} {
		items := randItems(r, n)
		tr := BulkLoad(items)
		if tr.Len() != n {
			t.Errorf("n=%d: Len = %d", n, tr.Len())
		}
		// Every item must be findable by its own envelope.
		for _, it := range items {
			found := false
			tr.Search(it.Env, func(_ geom.Envelope, v int) bool {
				if v == it.Value {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("n=%d: item %d not found", n, it.Value)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	items := make([]Item[int], 100)
	for i := range items {
		items[i] = Item[int]{Env: geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Value: i}
	}
	tr := BulkLoad(items)
	count := 0
	completed := tr.Search(geom.Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, func(_ geom.Envelope, _ int) bool {
		count++
		return count < 5
	})
	if completed {
		t.Error("Search should report early termination")
	}
	if count != 5 {
		t.Errorf("visited %d items, want 5", count)
	}
}

// Property: for random item sets and queries — at every packing boundary
// (one leaf, a full leaf, one over, full second level, one over, three
// levels) and at random sizes — the bulk-loaded tree agrees with brute force.
func TestQueryEquivalenceProperty(t *testing.T) {
	check := func(seed int64, n int) bool {
		r := rand.New(rand.NewSource(seed))
		items := randItems(r, n)
		tr := BulkLoad(items)
		for q := 0; q < 10; q++ {
			query := randEnv(r).ExpandBy(float64(r.Intn(100)))
			want := bruteQuery(items, query)
			got := sortedQuery(tr, query)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	for _, n := range []int{0, 1, 15, 16, 17, 257, 4097} {
		if !check(int64(n), n) {
			t.Errorf("n=%d: query diverged from brute force", n)
		}
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}
	prop := func(seed int64) bool { return check(seed, 1+rand.New(rand.NewSource(seed)).Intn(300)) }
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("query equivalence failed: %v", err)
	}
}

// TestAppendQueryMatchesQuery is the differential test of the buffer-carrying
// query: Query's values in Query's order, each with the envelope it was
// loaded under, appended after whatever dst already held — and no allocation
// once the recycled buffer has reached its working size.
func TestAppendQueryMatchesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 15, 16, 17, 257, 4097} {
		items := randItems(r, n)
		tr := BulkLoad(items)
		sentinel := Item[int]{Value: -1}
		buf := []Item[int]{sentinel}
		for q := 0; q < 50; q++ {
			query := randEnv(r).ExpandBy(float64(r.Intn(200)))
			want := tr.Query(query)
			buf = tr.AppendQuery(buf[:1], query)
			if buf[0] != sentinel {
				t.Fatalf("n=%d query %d: AppendQuery overwrote dst's prefix", n, q)
			}
			got := buf[1:]
			if len(got) != len(want) {
				t.Fatalf("n=%d query %d: %d items, Query returned %d", n, q, len(got), len(want))
			}
			for i, it := range got {
				if it.Value != want[i] {
					t.Fatalf("n=%d query %d: item %d = %d, Query has %d there", n, q, i, it.Value, want[i])
				}
				if it.Env != items[it.Value].Env {
					t.Fatalf("n=%d query %d: item %d carries %+v, stored under %+v", n, q, i, it.Env, items[it.Value].Env)
				}
			}
		}
	}

	items := randItems(r, 1000)
	tr := BulkLoad(items)
	all := tr.Envelope()
	buf := tr.AppendQuery(nil, all)
	if allocs := testing.AllocsPerRun(20, func() { buf = tr.AppendQuery(buf[:0], all) }); allocs != 0 {
		t.Errorf("AppendQuery into a grown buffer allocated %.0f times per call, want 0", allocs)
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := randItems(r, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(items)
	}
}

func BenchmarkQuery(b *testing.B) { benchQuery(b, false) }

func BenchmarkAppendQuery(b *testing.B) { benchQuery(b, true) }

func benchQuery(b *testing.B, reuse bool) {
	r := rand.New(rand.NewSource(1))
	items := randItems(r, 100000)
	tr := BulkLoad(items)
	queries := make([]geom.Envelope, 1024)
	for i := range queries {
		queries[i] = randEnv(r).ExpandBy(10)
	}
	var buf []Item[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reuse {
			buf = tr.AppendQuery(buf[:0], queries[i%len(queries)])
		} else {
			tr.Query(queries[i%len(queries)])
		}
	}
}
