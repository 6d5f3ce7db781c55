package spatial

import (
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkt"
)

// randomPoints builds n deterministic points in the unit-ish square.
func randomPoints(n int, seed int64) []geom.Geometry {
	r := rand.New(rand.NewSource(seed))
	out := make([]geom.Geometry, n)
	for i := range out {
		out[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	return out
}

// TestWriteCellsMatchesSequentialOrder: the distributed collective write
// must produce byte-for-byte the file a sequential writer would produce by
// walking cells in row-major order.
func TestWriteCellsMatchesSequentialOrder(t *testing.T) {
	pts := randomPoints(400, 5)
	env := core.LocalEnvelope(pts)
	g, err := grid.New(env, 8, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential oracle: assign geometries to the cell of their center,
	// then concatenate cells in id order.
	oracleCells := make(map[int][]geom.Geometry)
	for _, p := range pts {
		c := p.Envelope().Center()
		cell := g.CellAt(c.X, c.Y)
		oracleCells[cell] = append(oracleCells[cell], p)
	}
	var oracle strings.Builder
	for cell := 0; cell < g.NumCells(); cell++ {
		for _, gg := range oracleCells[cell] {
			oracle.WriteString(wkt.Format(gg))
			oracle.WriteByte('\n')
		}
	}

	for _, ranks := range []int{1, 2, 5} {
		fs, err := pfs.New(pfs.CometLustre())
		if err != nil {
			t.Fatal(err)
		}
		pf, err := fs.Create("out.wkt", 4, 1024)
		if err != nil {
			t.Fatal(err)
		}
		err = mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			// Each rank owns its round-robin cells.
			owned := make(map[int][]geom.Geometry)
			for cell, gs := range oracleCells {
				if grid.RoundRobin(cell, c.Size()) == c.Rank() {
					owned[cell] = gs
				}
			}
			f := mpiio.Open(c, pf, mpiio.Hints{})
			total, err := WriteCells(c, f, g, owned)
			if err != nil {
				return err
			}
			if total != int64(oracle.Len()) {
				t.Errorf("ranks=%d: total %d, want %d", ranks, total, oracle.Len())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		got := make([]byte, pf.Size())
		if _, err := pf.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(got) != oracle.String() {
			t.Fatalf("ranks=%d: output differs from sequential oracle\n got %d bytes\nwant %d bytes",
				ranks, len(got), oracle.Len())
		}
	}
}

// TestWriteCellsAfterBuildIndex: end-to-end — distribute geometries with
// the real exchange, then write the distributed cells back to one file;
// every input geometry must appear exactly once.
func TestWriteCellsAfterBuildIndex(t *testing.T) {
	pts := randomPoints(300, 11)
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fs.Create("indexed.wkt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	err = mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		// Deal the points round-robin as "locally read" batches.
		var local []geom.Geometry
		for i := c.Rank(); i < len(pts); i += c.Size() {
			local = append(local, pts[i])
		}
		global, err := core.GlobalEnvelope(c, core.LocalEnvelope(local))
		if err != nil {
			return err
		}
		g, err := grid.New(global, 6, 6)
		if err != nil {
			return err
		}
		pt := &core.Partitioner{Grid: g}
		owned, _, err := pt.Exchange(c, local)
		if err != nil {
			return err
		}
		f := mpiio.Open(c, pf, mpiio.Hints{})
		_, err = WriteCells(c, f, g, owned)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every input point appears exactly once (points never straddle cells).
	data := make([]byte, pf.Size())
	if _, err := pf.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(pts) {
		t.Fatalf("output has %d records, want %d", len(lines), len(pts))
	}
	seen := map[string]int{}
	for _, l := range lines {
		seen[l]++
	}
	for _, p := range pts {
		if seen[wkt.Format(p)] != 1 {
			t.Fatalf("point %s appears %d times", wkt.Format(p), seen[wkt.Format(p)])
		}
	}
}

// TestWriteCellsRankLocalError: a rank whose own cells fail validation
// returns its error before the layout Allreduce, so its peers never meet
// it there. The world abort releases them: every rank errors — the
// offender with its own error, the peers with ErrAborted — and no rank
// goroutine outlives the run.
func TestWriteCellsRankLocalError(t *testing.T) {
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fs.Create("bad.wkt", 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const ranks = 3
	errs := make([]error, ranks)
	worldErr := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		owned := map[int][]geom.Geometry{c.Rank(): {geom.Point{X: 1, Y: 1}}}
		if c.Rank() == 1 {
			owned[g.NumCells()] = []geom.Geometry{geom.Point{X: 2, Y: 2}} // outside the grid
		}
		_, errs[c.Rank()] = WriteCells(c, mpiio.Open(c, pf, mpiio.Hints{}), g, owned)
		return errs[c.Rank()]
	})
	if worldErr == nil || !strings.Contains(errs[1].Error(), "outside grid") {
		t.Fatalf("world err %v, rank 1 err %v; want rank 1's cell-range error", worldErr, errs[1])
	}
	for _, r := range []int{0, 2} {
		if !errors.Is(errs[r], mpi.ErrAborted) {
			t.Errorf("rank %d: err = %v, want ErrAborted", r, errs[r])
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("leaked goroutines: %d before the run, %d after", before, runtime.NumGoroutine())
		}
	}
}
