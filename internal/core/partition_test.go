package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/wkt"
)

// scatterGeoms deterministically splits geometries among ranks.
func scatterGeoms(geoms []geom.Geometry, rank, size int) []geom.Geometry {
	var out []geom.Geometry
	for i := rank; i < len(geoms); i += size {
		out = append(out, geoms[i])
	}
	return out
}

// randomBoxes builds n small rectangles in the world.
func randomBoxes(n int, seed int64) []geom.Geometry {
	r := rand.New(rand.NewSource(seed))
	out := make([]geom.Geometry, n)
	for i := range out {
		x, y := r.Float64()*90, r.Float64()*90
		e := geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*10, MaxY: y + r.Float64()*10}
		out[i] = e.ToPolygon()
	}
	return out
}

// runExchange executes the partitioner on `ranks` ranks and returns the
// merged cell -> WKT multiset over all ranks.
func runExchange(t *testing.T, geoms []geom.Geometry, ranks, cols, rows, window int, useIndex bool) map[int][]string {
	t.Helper()
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	merged := make(map[int][]string)
	var mu sync.Mutex
	err = mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: g, WindowCells: window, DirectGrid: useIndex}
		local := scatterGeoms(geoms, c.Rank(), c.Size())
		cells, stats, err := pt.Exchange(c, local)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for cell, gs := range cells {
			// Ownership: every returned cell must belong to this rank.
			if grid.RoundRobin(cell, c.Size()) != c.Rank() {
				return fmt.Errorf("rank %d returned foreign cell %d", c.Rank(), cell)
			}
			for _, gg := range gs {
				merged[cell] = append(merged[cell], wkt.Format(gg))
			}
		}
		if stats.Phases < 1 {
			return fmt.Errorf("no exchange phases")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for cell := range merged {
		sort.Strings(merged[cell])
	}
	return merged
}

// oracleCells computes the expected cell contents sequentially.
func oracleCells(t *testing.T, geoms []geom.Geometry, cols, rows int) map[int][]string {
	t.Helper()
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int][]string)
	for _, gg := range geoms {
		for _, cell := range g.CellsFor(gg.Envelope()) {
			out[cell] = append(out[cell], wkt.Format(gg))
		}
	}
	for cell := range out {
		sort.Strings(out[cell])
	}
	return out
}

func assertCellsEqual(t *testing.T, got, want map[int][]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d populated cells, want %d", label, len(got), len(want))
	}
	for cell, wg := range want {
		gg, ok := got[cell]
		if !ok {
			t.Fatalf("%s: cell %d missing", label, cell)
		}
		if len(gg) != len(wg) {
			t.Fatalf("%s: cell %d has %d geoms, want %d", label, cell, len(gg), len(wg))
		}
		for i := range wg {
			if gg[i] != wg[i] {
				t.Fatalf("%s: cell %d geom %d differs", label, cell, i)
			}
		}
	}
}

func TestExchangeMatchesOracle(t *testing.T) {
	geoms := randomBoxes(200, 21)
	want := oracleCells(t, geoms, 8, 8)
	for _, ranks := range []int{1, 2, 4, 7} {
		got := runExchange(t, geoms, ranks, 8, 8, 0, false)
		assertCellsEqual(t, got, want, fmt.Sprintf("ranks=%d", ranks))
	}
}

func TestExchangeSlidingWindow(t *testing.T) {
	geoms := randomBoxes(150, 22)
	want := oracleCells(t, geoms, 6, 6)
	for _, window := range []int{1, 5, 36, 100} {
		got := runExchange(t, geoms, 4, 6, 6, window, false)
		assertCellsEqual(t, got, want, fmt.Sprintf("window=%d", window))
	}
}

func TestExchangeViaCellIndex(t *testing.T) {
	// The R-tree-of-cell-boundaries path (the paper's construction) must
	// agree with the arithmetic path.
	geoms := randomBoxes(120, 23)
	a := runExchange(t, geoms, 3, 5, 5, 0, false)
	b := runExchange(t, geoms, 3, 5, 5, 0, true)
	if len(a) != len(b) {
		t.Fatalf("paths disagree on populated cells: %d vs %d", len(a), len(b))
	}
	for cell := range a {
		if len(a[cell]) != len(b[cell]) {
			t.Fatalf("cell %d: %d vs %d geoms", cell, len(a[cell]), len(b[cell]))
		}
	}
}

func TestExchangeReplication(t *testing.T) {
	// A geometry spanning the whole world must land in every cell.
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	big := world.ToPolygon()
	got := runExchange(t, []geom.Geometry{big}, 3, 4, 4, 0, false)
	if len(got) != 16 {
		t.Fatalf("world-spanning geometry in %d cells, want 16", len(got))
	}
}

func TestExchangeEmptyInput(t *testing.T) {
	got := runExchange(t, nil, 4, 4, 4, 0, false)
	if len(got) != 0 {
		t.Fatalf("empty input produced cells: %v", got)
	}
}

func TestExchangeStatsAccounting(t *testing.T) {
	geoms := randomBoxes(100, 24)
	var mu sync.Mutex
	var replicas, received int
	g, _ := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 8, 8)
	err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: g}
		local := scatterGeoms(geoms, c.Rank(), c.Size())
		_, stats, err := pt.Exchange(c, local)
		if err != nil {
			return err
		}
		mu.Lock()
		replicas += stats.Replicas
		received += stats.GeomsRecv
		mu.Unlock()
		if stats.ProjectTime() <= 0 {
			return fmt.Errorf("no projection time charged")
		}
		if stats.CommTime() <= 0 {
			return fmt.Errorf("no communication time charged")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: every placement sent is received exactly once.
	if replicas != received {
		t.Errorf("replicas=%d received=%d, want equal", replicas, received)
	}
	if replicas < 100 {
		t.Errorf("replicas=%d, want >= geometry count", replicas)
	}
}

// Property: exchange conserves geometries (sum of cell populations equals
// sum of replication counts) for random inputs, rank counts and windows.
func TestExchangeConservationProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(77))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		geoms := randomBoxes(20+r.Intn(150), seed)
		ranks := 1 + r.Intn(6)
		cols := 2 + r.Intn(8)
		rows := 2 + r.Intn(8)
		window := []int{0, 1, 7, 1000}[r.Intn(4)]
		got := runExchange(t, geoms, ranks, cols, rows, window, false)
		want := oracleCells(t, geoms, cols, rows)
		if len(got) != len(want) {
			return false
		}
		for cell := range want {
			if len(got[cell]) != len(want[cell]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("exchange conservation property failed: %v", err)
	}
}
