package pipelinetest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
)

// TestServeEquivalenceMatrix pins the resident query service to the batch
// pipeline: over both partition families — the uniform grid and the
// skew-aware adaptive partition — and under 1, 4, and 8 concurrent client
// goroutines, the served answers (identities, per-rank pair counts, refine
// time) and the final virtual clock must be bitwise identical to the
// materialized RangeQuery over the same query batch. Client count and
// scheduler interleaving must be invisible: which client evaluates what,
// and when, differs on every run, but the charge replay is keyed by request
// id, so the clock cannot drift.
func TestServeEquivalenceMatrix(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	queries := genQueries(12, 71)

	uniformGeoms := genGeoms(420, 70)
	skewGeoms := genSkewedGeoms(400, 72)
	const ranks = 3
	hist, err := grid.NewHistogram(world, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range skewGeoms {
		hist.Add(g.Envelope(), 1)
	}
	adaptive, err := grid.BuildAdaptive(hist, grid.AdaptiveOptions{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{
			File:        wktFixture(t, uniformGeoms),
			Parser:      func() core.Parser { return core.NewWKTParser() },
			ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 31},
			Envelope:    world,
			GridCells:   64,
			WindowCells: 7,
			Queries:     queries,
			Ranks:       ranks,
		}},
		{"adaptive", Config{
			File:        wktFixture(t, skewGeoms),
			Parser:      func() core.Parser { return core.NewWKTParser() },
			ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 31},
			Envelope:    world,
			WindowCells: 5,
			Queries:     queries,
			Ranks:       ranks,
			Partition:   adaptive,
		}},
	}
	for _, tc := range cases {
		ref := Run(t, tc.cfg, Materialized)
		// Non-vacuity: the reference must actually have matched something,
		// or every served equivalence below would hold trivially.
		var pairs int64
		for _, p := range ref.QueryPairs {
			pairs += p
		}
		if pairs == 0 {
			t.Fatalf("%s: reference pipeline matched nothing; fixture too sparse", tc.name)
		}
		for _, clients := range []int{1, 4, 8} {
			label := fmt.Sprintf("%s clients=%d", tc.name, clients)
			AssertEquivalent(t, label, RunServe(t, tc.cfg, clients), ref)
		}
	}
}

// TestServeRepeatDeterministic runs the served pipeline twice under heavy
// client concurrency and requires the two runs to agree bitwise — the
// scheduler is free to interleave the clients differently each time, and
// none of it may show in any observable.
func TestServeRepeatDeterministic(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	cfg := Config{
		File:        wktFixture(t, genGeoms(240, 73)),
		Parser:      func() core.Parser { return core.NewWKTParser() },
		ReadOpt:     core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 27},
		Envelope:    world,
		GridCells:   36,
		WindowCells: 5,
		Queries:     genQueries(10, 74),
		Ranks:       3,
	}
	a := RunServe(t, cfg, 8)
	b := RunServe(t, cfg, 8)
	AssertEquivalent(t, "serve repeat", b, a)
}
