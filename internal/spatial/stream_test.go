package spatial

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/wkt"
)

// wktFile writes geometries as a newline-delimited WKT layer on a
// simulated volume.
func wktFile(t *testing.T, name string, geoms []geom.Geometry) *pfs.File {
	t.Helper()
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range geoms {
		f.Append([]byte(wkt.Format(g)))
		f.Append([]byte{'\n'})
	}
	return f
}

// runJoinFiles executes JoinFiles across ranks and returns the aggregated
// breakdown (identical on all ranks).
func runJoinFiles(t *testing.T, fR, fS *pfs.File, ranks int, readOpt core.ReadOptions, opt JoinOptions) Breakdown {
	t.Helper()
	var out Breakdown
	var once sync.Once
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		bd, err := JoinFiles(c, mpiio.Open(c, fR, mpiio.Hints{}), mpiio.Open(c, fS, mpiio.Hints{}),
			core.NewWKTParser(), readOpt, opt)
		if err != nil {
			return err
		}
		once.Do(func() { out = bd })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJoinFilesStreamedMatchesTwoPass: with the true global envelope
// supplied, the one-pass streamed JoinFiles must find exactly the pairs —
// and make exactly the per-cell index insertions, since the grids coincide
// — of the historical two-pass pipeline, and both must match the
// sequential oracle.
func TestJoinFilesStreamedMatchesTwoPass(t *testing.T) {
	rSet := boxes(160, 51, 9)
	sSet := boxes(140, 52, 9)
	fR := wktFile(t, "r.wkt", rSet)
	fS := wktFile(t, "s.wkt", sSet)
	oracle := nestedLoopJoin(rSet, sSet)
	if oracle == 0 {
		t.Fatal("oracle found no pairs; test data too sparse")
	}

	// The exact envelope the two-pass Allreduce derives (Union is order-
	// independent), so both pipelines build the same grid.
	world := core.LocalEnvelope(rSet).Union(core.LocalEnvelope(sSet))

	for _, ranks := range []int{1, 3} {
		readOpt := core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 23}
		twoPass := runJoinFiles(t, fR, fS, ranks, readOpt, JoinOptions{GridCells: 64})
		onePass := runJoinFiles(t, fR, fS, ranks, readOpt, JoinOptions{GridCells: 64, Envelope: &world})
		if twoPass.Pairs != oracle {
			t.Fatalf("ranks=%d: two-pass pairs = %d, oracle %d", ranks, twoPass.Pairs, oracle)
		}
		if onePass.Pairs != oracle {
			t.Errorf("ranks=%d: streamed pairs = %d, oracle %d", ranks, onePass.Pairs, oracle)
		}
		if onePass.Indexed != twoPass.Indexed {
			t.Errorf("ranks=%d: streamed indexed %d, two-pass %d (grids diverged?)",
				ranks, onePass.Indexed, twoPass.Indexed)
		}
		if onePass.Read <= 0 || onePass.Comm <= 0 || onePass.Total <= 0 {
			t.Errorf("ranks=%d: streamed breakdown not populated: %+v", ranks, onePass)
		}
	}
}

// TestJoinFilesStreamedEnvelopeGuard: a streamed join with an empty
// envelope is a configuration error on every rank, not a hang.
func TestJoinFilesStreamedEnvelopeGuard(t *testing.T) {
	f := wktFile(t, "guard.wkt", boxes(10, 53, 5))
	empty := geom.EmptyEnvelope()
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		mf := mpiio.Open(c, f, mpiio.Hints{})
		_, err := JoinFiles(c, mf, mf, core.NewWKTParser(), core.ReadOptions{}, JoinOptions{Envelope: &empty})
		if err == nil {
			return fmt.Errorf("rank %d: empty streamed-join envelope accepted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJoinFilesStreamedEnvelopeTooSmall: a caller-supplied envelope
// smaller than the data must not lose geometries — projections outside the
// grid clamp to border cells (including under the default R-tree cell
// lookup), so the streamed join still finds every pair the oracle finds.
func TestJoinFilesStreamedEnvelopeTooSmall(t *testing.T) {
	rSet := boxes(120, 54, 9)
	sSet := boxes(100, 55, 9)
	fR := wktFile(t, "rsmall.wkt", rSet)
	fS := wktFile(t, "ssmall.wkt", sSet)
	oracle := nestedLoopJoin(rSet, sSet)
	if oracle == 0 {
		t.Fatal("oracle found no pairs; test data too sparse")
	}
	// boxes draws in [0,100)^2; this envelope covers only the lower-left
	// quadrant, leaving most geometries wholly outside the grid.
	small := geom.Envelope{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	readOpt := core.ReadOptions{BlockSize: 1 << 10, StreamBatch: 17}
	got := runJoinFiles(t, fR, fS, 3, readOpt, JoinOptions{GridCells: 64, Envelope: &small})
	if got.Pairs != oracle {
		t.Errorf("streamed join with undersized envelope found %d pairs, oracle %d", got.Pairs, oracle)
	}
}
