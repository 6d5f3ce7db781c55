package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mpi"
)

func TestSpatialDatatypeSizes(t *testing.T) {
	if PointType.Size() != 16 {
		t.Errorf("MPI_POINT size = %d", PointType.Size())
	}
	if LineType.Size() != 32 {
		t.Errorf("MPI_LINE size = %d", LineType.Size())
	}
	if RectType.Size() != 32 {
		t.Errorf("MPI_RECT size = %d", RectType.Size())
	}
	if !RectType.Contiguous() {
		t.Error("MPI_RECT must be contiguous (4 doubles)")
	}
}

func TestRectBufferRoundTrip(t *testing.T) {
	rects := []geom.Envelope{
		{MinX: 0, MinY: 1, MaxX: 2, MaxY: 3},
		{MinX: -5.5, MinY: -6.5, MaxX: 7.25, MaxY: 8},
	}
	got := decodeRectBuffer(encodeRectBuffer(rects))
	for i := range rects {
		if got[i] != rects[i] {
			t.Errorf("rect %d = %+v, want %+v", i, got[i], rects[i])
		}
	}
}

func TestGlobalEnvelopeUnion(t *testing.T) {
	// Each rank contributes a disjoint tile; the union must cover all.
	err := mpi.Run(cluster.Local(6), func(c *mpi.Comm) error {
		r := float64(c.Rank())
		local := geom.Envelope{MinX: r * 10, MinY: 0, MaxX: r*10 + 5, MaxY: 5}
		global, err := GlobalEnvelope(c, local)
		if err != nil {
			return err
		}
		want := geom.Envelope{MinX: 0, MinY: 0, MaxX: 55, MaxY: 5}
		if global != want {
			return fmt.Errorf("rank %d: global = %+v, want %+v", c.Rank(), global, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceRectsUnionAtRoot(t *testing.T) {
	err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		r := float64(c.Rank())
		rects := []geom.Envelope{
			{MinX: r, MinY: r, MaxX: r + 1, MaxY: r + 1},
			{MinX: -r, MinY: 0, MaxX: 0, MaxY: 1},
		}
		res, err := ReduceRects(c, rects, OpRectUnion, 2)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if res != nil {
				return fmt.Errorf("non-root got result")
			}
			return nil
		}
		want0 := geom.Envelope{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
		want1 := geom.Envelope{MinX: -3, MinY: 0, MaxX: 0, MaxY: 1}
		if res[0] != want0 || res[1] != want1 {
			return fmt.Errorf("reduce = %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRectMinMaxBySize(t *testing.T) {
	// Paper: "The min operator can be used to find the line or rectangle
	// with minimum size among processes."
	err := mpi.Run(cluster.Local(5), func(c *mpi.Comm) error {
		r := float64(c.Rank())
		// Rank r's rect has area (r+1)^2.
		rect := geom.Envelope{MinX: 0, MinY: 0, MaxX: r + 1, MaxY: r + 1}
		minRes, err := AllreduceRects(c, []geom.Envelope{rect}, OpRectMin)
		if err != nil {
			return err
		}
		maxRes, err := AllreduceRects(c, []geom.Envelope{rect}, OpRectMax)
		if err != nil {
			return err
		}
		if minRes[0].Area() != 1 {
			return fmt.Errorf("min area = %v", minRes[0].Area())
		}
		if maxRes[0].Area() != 25 {
			return fmt.Errorf("max area = %v", maxRes[0].Area())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanRectsUnionPrefix(t *testing.T) {
	// Figure 13 exercises MPI_Scan with geometric union: rank r's scan
	// result must be the union of ranks 0..r.
	err := mpi.Run(cluster.Local(6), func(c *mpi.Comm) error {
		r := float64(c.Rank())
		rect := geom.Envelope{MinX: r, MinY: 0, MaxX: r + 1, MaxY: 1}
		res, err := ScanRects(c, []geom.Envelope{rect}, OpRectUnion)
		if err != nil {
			return err
		}
		want := geom.Envelope{MinX: 0, MinY: 0, MaxX: r + 1, MaxY: 1}
		if res[0] != want {
			return fmt.Errorf("rank %d scan = %+v, want %+v", c.Rank(), res[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPointAndLineOps(t *testing.T) {
	err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		r := float64(c.Rank())
		// Points at (r, 3-r): lexicographic min is (0,3), max is (3,0).
		pbuf := make([]byte, 16)
		putF64(pbuf, r)
		putF64(pbuf[8:], 3-r)
		minRes, err := c.Allreduce(pbuf, 1, PointType, OpPointMin)
		if err != nil {
			return err
		}
		if f64(minRes) != 0 || f64(minRes[8:]) != 3 {
			return fmt.Errorf("point min = (%v,%v)", f64(minRes), f64(minRes[8:]))
		}
		maxRes, err := c.Allreduce(pbuf, 1, PointType, OpPointMax)
		if err != nil {
			return err
		}
		if f64(maxRes) != 3 || f64(maxRes[8:]) != 0 {
			return fmt.Errorf("point max = (%v,%v)", f64(maxRes), f64(maxRes[8:]))
		}
		// Lines of length r+1.
		lbuf := make([]byte, 32)
		putF64(lbuf, 0)
		putF64(lbuf[8:], 0)
		putF64(lbuf[16:], r+1)
		putF64(lbuf[24:], 0)
		lmin, err := c.Allreduce(lbuf, 1, LineType, OpLineMin)
		if err != nil {
			return err
		}
		if f64(lmin[16:]) != 1 {
			return fmt.Errorf("line min endpoint = %v", f64(lmin[16:]))
		}
		lmax, err := c.Allreduce(lbuf, 1, LineType, OpLineMax)
		if err != nil {
			return err
		}
		if f64(lmax[16:]) != 4 {
			return fmt.Errorf("line max endpoint = %v", f64(lmax[16:]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpValidatesDatatype(t *testing.T) {
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		buf := make([]byte, 16)
		_, err := c.Allreduce(buf, 1, PointType, OpRectUnion) // rect op, point type
		if err == nil {
			return fmt.Errorf("rect op accepted point datatype")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the distributed union reduce equals the sequential union fold
// for random rectangle sets, any rank count.
func TestUnionReduceMatchesSequentialProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(13))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ranks := 1 + r.Intn(8)
		count := 1 + r.Intn(6)
		contrib := make([][]geom.Envelope, ranks)
		want := make([]geom.Envelope, count)
		for i := range want {
			want[i] = geom.EmptyEnvelope()
		}
		for rk := range contrib {
			contrib[rk] = make([]geom.Envelope, count)
			for j := range contrib[rk] {
				x, y := r.Float64()*100, r.Float64()*100
				e := geom.Envelope{MinX: x, MinY: y, MaxX: x + r.Float64()*10, MaxY: y + r.Float64()*10}
				contrib[rk][j] = e
				want[j] = want[j].Union(e)
			}
		}
		ok := true
		var mu sync.Mutex
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			res, err := AllreduceRects(c, contrib[c.Rank()], OpRectUnion)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			for j := range want {
				if res[j] != want[j] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("union reduce property failed: %v", err)
	}
}
