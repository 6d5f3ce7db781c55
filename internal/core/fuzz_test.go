package core

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/wkb"
)

// FuzzDecodeExchangeFrame drives the exchange-frame decoder with arbitrary
// bytes. The contract under fuzzing: never panic, never read past the input;
// on success the frame consumed at least a header and yielded a geometry; on
// failure quarantineFrame must make forward progress so SkipBadFrames cannot
// loop forever on the same partition.
func FuzzDecodeExchangeFrame(f *testing.F) {
	valid, err := appendExchangeFrame(nil, 3, geom.Point{X: 1, Y: 2})
	if err != nil {
		f.Fatal(err)
	}
	two, _ := appendExchangeFrame(valid, 9, geom.Point{X: -4, Y: 7})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(append([]byte{}, valid...))
	f.Add(append([]byte{}, two...))
	f.Add(append([]byte{}, valid[:len(valid)-2]...))   // truncated payload
	for _, bit := range []int{0, 33, 47, 63, 64, 71} { // header + payload flips
		flipped := append([]byte{}, valid...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, part []byte) {
		cell, g, rest, err := decodeExchangeFrame(&wkb.Parser{}, part)
		if err != nil {
			skipped, tail := quarantineFrame(part)
			if skipped <= 0 && len(part) > 0 {
				t.Fatalf("quarantine made no progress on %d bad bytes", len(part))
			}
			if skipped > len(part) || len(tail) != len(part)-skipped {
				t.Fatalf("quarantine skipped %d of %d bytes but kept %d", skipped, len(part), len(tail))
			}
			return
		}
		if cell < 0 {
			t.Fatalf("decoded negative cell %d", cell)
		}
		if g == nil {
			t.Fatal("decoded nil geometry without error")
		}
		consumed := len(part) - len(rest)
		if consumed < exchangeHeader || consumed > len(part) {
			t.Fatalf("decoded frame consumed %d of %d bytes", consumed, len(part))
		}
	})
}

// bitFlipExchange runs one two-rank exchange in which rank 0 flips the given
// bit of the partition it receives from rank 1 (when the partition is long
// enough), and returns each rank's error plus rank 0's stats.
func bitFlipExchange(t *testing.T, g *grid.Grid, skipBad bool, bit int) ([2]error, ExchangeStats) {
	t.Helper()
	var errs [2]error
	var stats ExchangeStats
	var mu sync.Mutex
	if err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: g, DirectGrid: true, SkipBadFrames: skipBad}
		if c.Rank() == 0 {
			pt.FrameFault = func(phase, src int, part []byte) {
				if src == 1 && bit < len(part)*8 {
					part[bit/8] ^= 1 << (bit % 8)
				}
			}
		}
		local := []geom.Geometry{
			geom.Point{X: float64(10 + 20*c.Rank()), Y: 15},
			geom.Point{X: float64(30 + 20*c.Rank()), Y: 85},
		}
		_, st, err := pt.Exchange(c, local)
		mu.Lock()
		errs[c.Rank()] = err
		if c.Rank() == 0 {
			stats = st
		}
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return errs, stats
}

// TestExchangeBitFlipSweep feeds bit-flipped exchange frames end to end
// through Exchanger.Add/Finish: every bit of the inter-rank partition is
// flipped in turn. Under SkipBadFrames the exchange must always complete —
// undecodable or misrouted frames are quarantined and counted, never
// panicked on and never looped over. With the policy off, the same flips
// must either pass (a benign coordinate flip) or fail rank 0 cleanly while
// rank 1 still completes its collectives.
func TestExchangeBitFlipSweep(t *testing.T) {
	g, err := grid.New(geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Measure the partition rank 0 receives from rank 1 on a clean run.
	partBits := 0
	if err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		pt := &Partitioner{Grid: g, DirectGrid: true}
		if c.Rank() == 0 {
			pt.FrameFault = func(phase, src int, part []byte) {
				if src == 1 {
					partBits = len(part) * 8
				}
			}
		}
		local := []geom.Geometry{
			geom.Point{X: float64(10 + 20*c.Rank()), Y: 15},
			geom.Point{X: float64(30 + 20*c.Rank()), Y: 85},
		}
		_, _, err := pt.Exchange(c, local)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if partBits == 0 {
		t.Fatal("clean run shipped no inter-rank frames; sweep has nothing to flip")
	}

	quarantined := 0
	for bit := 0; bit < partBits; bit++ {
		errs, stats := bitFlipExchange(t, g, true, bit)
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("bit %d: SkipBadFrames exchange failed: rank0=%v rank1=%v", bit, errs[0], errs[1])
		}
		if stats.FramesQuarantined > 0 {
			quarantined++
			if stats.BytesQuarantined <= 0 {
				t.Fatalf("bit %d: quarantined %d frames but 0 bytes", bit, stats.FramesQuarantined)
			}
		}
	}
	if quarantined == 0 {
		t.Error("no bit flip was ever quarantined; the sweep exercised nothing")
	}

	// Policy off: flips in the first frame's header must fail rank 0 cleanly
	// (rank 1, whose receive path saw no fault, still completes).
	sawErr := false
	for bit := 0; bit < 64; bit += 7 {
		errs, _ := bitFlipExchange(t, g, false, bit)
		if errs[1] != nil {
			t.Fatalf("bit %d: fault on rank 0 leaked an error to rank 1: %v", bit, errs[1])
		}
		if errs[0] != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("no header flip failed the strict exchange")
	}
}
