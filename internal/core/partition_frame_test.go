package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/wkb"
)

// appendExchangeFrame stages g's frame for cell the way Exchanger.Add does —
// encode, checked header, exact-size slot, one copy — and appends the
// staged bytes to dst.
func appendExchangeFrame(dst []byte, cell int, g geom.Geometry) ([]byte, error) {
	enc := wkb.Encode(g)
	if err := checkFrame(cell, len(enc)); err != nil {
		return dst, err
	}
	var s frameStage
	copy(s.frame(cell, len(enc)), enc)
	return append(dst, s.chunks[0]...), nil
}

// TestDecodeExchangeFrameShortDecode is the regression test for the
// wrapped-nil decode error: when wkb.Decode consumes fewer bytes than the
// frame header announced but returns no error, the old
// fmt.Errorf("...: %w", derr) wrapped a nil error and printed a garbage
// message. The short decode must be reported explicitly.
func TestDecodeExchangeFrameShortDecode(t *testing.T) {
	payload := wkb.Encode(geom.Point{X: 1, Y: 2})
	padded := append(append([]byte{}, payload...), 0xEE) // valid WKB + 1 slack byte
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame[0:], 7)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(padded)))
	frame = append(frame, padded...)

	_, _, _, err := decodeExchangeFrame(&wkb.Parser{}, frame)
	if err == nil {
		t.Fatal("short decode accepted")
	}
	msg := err.Error()
	if strings.Contains(msg, "%!w") || strings.Contains(msg, "<nil>") {
		t.Errorf("wrapped-nil garbage in message: %q", msg)
	}
	if !strings.Contains(msg, "of") || !strings.Contains(msg, "framed bytes") {
		t.Errorf("short decode not reported explicitly: %q", msg)
	}
}

func TestDecodeExchangeFrameDecoderError(t *testing.T) {
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame[0:], 3)
	binary.LittleEndian.PutUint32(frame[4:], 3)
	frame = append(frame, 9, 9, 9) // garbage WKB
	if _, _, _, err := decodeExchangeFrame(&wkb.Parser{}, frame); err == nil {
		t.Fatal("garbage payload accepted")
	} else if strings.Contains(err.Error(), "<nil>") {
		t.Errorf("nil wrapped into decoder error: %q", err.Error())
	}
}

func TestDecodeExchangeFrameTruncated(t *testing.T) {
	if _, _, _, err := decodeExchangeFrame(&wkb.Parser{}, []byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame[4:], 100) // announces more than present
	if _, _, _, err := decodeExchangeFrame(&wkb.Parser{}, frame); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestAppendExchangeFrameRoundTrip(t *testing.T) {
	g := geom.Point{X: 3, Y: 4}
	buf, err := appendExchangeFrame(nil, 42, g)
	if err != nil {
		t.Fatal(err)
	}
	cell, got, rest, err := decodeExchangeFrame(&wkb.Parser{}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if cell != 42 || len(rest) != 0 {
		t.Errorf("cell=%d rest=%d bytes", cell, len(rest))
	}
	if p, ok := got.(geom.Point); !ok || p != g {
		t.Errorf("round trip produced %#v", got)
	}
	// Frames concatenate: a second append decodes after the first.
	buf, err = appendExchangeFrame(buf, 7, geom.Point{X: 5, Y: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, _, rest, err = decodeExchangeFrame(&wkb.Parser{}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if cell2, _, rest2, err := decodeExchangeFrame(&wkb.Parser{}, rest); err != nil || cell2 != 7 || len(rest2) != 0 {
		t.Errorf("second frame: cell=%d rest=%d err=%v", cell2, len(rest2), err)
	}
}

// TestExchangeRejectsOversizedGridCollectively: a grid whose cell ids
// overflow the u32 frame header must fail on every rank at Exchange entry
// (the same numCells everywhere), not strand peers behind one rank's
// mid-collective abort.
func TestExchangeRejectsOversizedGridCollectively(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("cell ids cannot exceed 2^32 on a 32-bit int")
	}
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 1<<17, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	failures := 0
	err = mpi.Run(cluster.Local(3), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: g, DirectGrid: true}
		var local []geom.Geometry
		if c.Rank() == 0 {
			local = []geom.Geometry{geom.Point{X: 50, Y: 50}}
		}
		_, _, err := pt.Exchange(c, local)
		if err == nil {
			return fmt.Errorf("rank %d: oversized grid accepted", c.Rank())
		}
		if !strings.Contains(err.Error(), "at most 2^32") {
			return fmt.Errorf("rank %d: wrong failure: %v", c.Rank(), err)
		}
		mu.Lock()
		failures++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 3 {
		t.Fatalf("%d ranks failed, want all 3", failures)
	}
}

// TestAppendExchangeFrameHeaderGuards: cell ids and payload lengths that do
// not fit the u32 header fields must error instead of silently wrapping.
func TestAppendExchangeFrameHeaderGuards(t *testing.T) {
	g := geom.Point{X: 1, Y: 1}
	if _, err := appendExchangeFrame(nil, -1, g); err == nil {
		t.Error("negative cell id accepted")
	}
	if bits.UintSize == 64 {
		huge := int(int64(math.MaxUint32) + 1)
		if _, err := appendExchangeFrame(nil, huge, g); err == nil {
			t.Error("cell id 2^32 accepted")
		}
		if _, err := appendExchangeFrame(nil, int(int64(math.MaxUint32)), g); err != nil {
			t.Errorf("cell id 2^32-1 rejected: %v", err)
		}
	}
}

// negativeCells is a partition whose lookup hands Add a cell id no frame
// header can carry — the only way to reach Add's encode failure short of a
// 4 GiB geometry. The frame-header check rejects the id before any
// placement sees it.
type negativeCells struct{ grid.Partition }

func (negativeCells) CellsFor(geom.Envelope) []int { return []int{-1} }

func (negativeCells) AppendCellsFor(dst []int, _ geom.Envelope) []int { return append(dst, -1) }

// TestExchangeAddFailureCompletes: an Add failure on one rank is sticky and
// must not strand the others — Exchange still runs every phase's
// collectives on all ranks, returns the encode error on the failing rank
// and clean (merely short of that rank's contribution) cells elsewhere.
func TestExchangeAddFailureCompletes(t *testing.T) {
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 3
	var mu sync.Mutex
	errs := make([]error, ranks)
	recv := make([]int, ranks)
	err = mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: g, WindowCells: 5, DirectGrid: true}
		if c.Rank() == 1 {
			pt.Grid = negativeCells{g}
		}
		ex, err := pt.Stream(c)
		if err != nil {
			return err
		}
		first := ex.Add([]geom.Geometry{geom.Point{X: 10 + 30*float64(c.Rank()), Y: 50}})
		if again := ex.Add(nil); again != first {
			return fmt.Errorf("rank %d: Add error not sticky: %v then %v", c.Rank(), first, again)
		}
		_, stats, ferr := ex.Finish()
		mu.Lock()
		errs[c.Rank()] = ferr
		recv[c.Rank()] = stats.GeomsRecv
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < ranks; r++ {
		if failing := r == 1; failing != (errs[r] != nil) {
			t.Errorf("rank %d: Finish error %v", r, errs[r])
		}
		total += recv[r]
	}
	if errs[1] != nil && !strings.Contains(errs[1].Error(), "overflows the u32 frame header") {
		t.Errorf("rank 1: wrong failure: %v", errs[1])
	}
	if total != 2 {
		t.Errorf("world received %d geometries, want the 2 the clean ranks added", total)
	}
}

// TestDecodePartRejectsForeignCells: a received frame whose cell this rank
// does not own, or whose cell lies outside the grid, fails a strict decode
// naming why, and under SkipBadFrames is quarantined alone while the next
// frame decodes — whether the block arrives as one chunk or as one chunk
// per frame.
func TestDecodePartRejectsForeignCells(t *testing.T) {
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 0.5, Y: 0.5}
	err = mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		for _, tc := range []struct {
			cell int
			want string
		}{{1, "received cell 1 owned by rank 1"}, {g.NumCells(), "outside the grid"}} {
			part, err := appendExchangeFrame(nil, tc.cell, p)
			if err != nil {
				return err
			}
			first := len(part)
			if part, err = appendExchangeFrame(part, 0, p); err != nil {
				return err
			}
			for _, block := range [][][]byte{{part}, {part[:first], part[first:]}} {
				for _, skip := range []bool{false, true} {
					ex, err := (&Partitioner{Grid: g, SkipBadFrames: skip}).Stream(c)
					if err != nil {
						return err
					}
					in := make([]recvPart, c.Size())
					ex.receive(&in[1], block)
					cells, err := ex.deliver(0, in)
					switch {
					case !skip && (err == nil || !strings.Contains(err.Error(), tc.want)):
						t.Errorf("cell %d, %d chunks: strict decode err = %v, want %q", tc.cell, len(block), err, tc.want)
					case skip && (err != nil || ex.stats.FramesQuarantined != 1 || len(cells[0]) != 1 || len(cells) != 1):
						t.Errorf("cell %d, %d chunks: quarantined %d, cells %v, err %v; want the one frame dropped and cell 0 decoded",
							tc.cell, len(block), ex.stats.FramesQuarantined, cells, err)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
