package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// goldenExchange is what one rank observes of one exchange: its virtual
// clock bit for bit and its traffic counters.
type goldenExchange struct {
	now                 uint64
	bytesSent, bytesRec int64
	geomsRecv           int
}

// TestExchangeClockGolden pins the exchange half of the modelled clock bit
// for bit, the way TestCollectiveClockGolden pins the two-phase I/O half:
// every rank's final virtual clock, BytesSent, BytesRecv and GeomsRecv, on 3
// ranks of a Comet layout at byte scale 4, over 400 generated geometries in
// an 8×8 grid with the R-tree cell lookup. It covers Exchanger.Add (each
// rank adds every third geometry, in two batches) and the raw ReadExchange
// path (length-prefixed WKB read by WKBParser, 1 KB blocks), each in one
// phase and in sliding windows of 3 cells, clean and with one FrameCorrupt
// rule (rank 0's part from rank 1, every phase) quarantined under
// SkipBadFrames. The parity tests compare one path with another; this one
// fails when a charge both paths share — the deserialization charges in
// decodePart and deliverKept, or FinishStream's serialization charge — is
// dropped or moved.
func TestExchangeClockGolden(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	geoms := genGeoms(t, 400, 41)
	pf := makeWKBFile(t, geoms)
	pf.SetScale(4)
	cases := []struct {
		raw     bool
		window  int
		corrupt bool
		want    [3]goldenExchange
	}{
		{raw: false, window: 0, corrupt: false, want: [3]goldenExchange{
			{0x3facefa415c0ece1, 545504, 593816, 2640},
			{0x3fac2a399f6f8494, 511936, 569308, 2544},
			{0x3fac52e3577c604c, 676233, 570549, 2561},
		}},
		{raw: false, window: 0, corrupt: true, want: [3]goldenExchange{
			{0x3fa76d4e658b2f9b, 545504, 593816, 1838},
			{0x3fac2a399f6f8494, 511936, 569308, 2544},
			{0x3fac52e3577c604c, 676233, 570549, 2561},
		}},
		{raw: false, window: 3, corrupt: false, want: [3]goldenExchange{
			{0x3fae729b0739cbff, 545504, 593816, 2640},
			{0x3fadbbb70142d712, 511936, 569308, 2544},
			{0x3fadbb2ef24daf5e, 676233, 570549, 2561},
		}},
		{raw: false, window: 3, corrupt: true, want: [3]goldenExchange{
			{0x3fae729b0739cbff, 545504, 593816, 2614},
			{0x3fadbbb70142d712, 511936, 569308, 2544},
			{0x3fadbb2ef24daf5e, 676233, 570549, 2561},
		}},
		{raw: true, window: 0, corrupt: false, want: [3]goldenExchange{
			{0x40153479f1dd37f0, 676373, 593816, 2640},
			{0x401532e50241e33c, 587574, 569308, 2544},
			{0x40153339a2d85a22, 469726, 570549, 2561},
		}},
		{raw: true, window: 0, corrupt: true, want: [3]goldenExchange{
			{0x401527cfbf6f269b, 676373, 593816, 1709},
			{0x401532e50241e33c, 587574, 569308, 2544},
			{0x40153339a2d85a22, 469726, 570549, 2561},
		}},
		{raw: true, window: 3, corrupt: false, want: [3]goldenExchange{
			{0x401536f6f575cbdc, 676373, 593816, 2640},
			{0x4015358917e67de4, 587574, 569308, 2544},
			{0x4015358807c89394, 469726, 570549, 2561},
		}},
		{raw: true, window: 3, corrupt: true, want: [3]goldenExchange{
			{0x401536f6f575cbdc, 676373, 593816, 2614},
			{0x4015358917e67de4, 587574, 569308, 2544},
			{0x4015358807c89394, 469726, 570549, 2561},
		}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("raw=%v/window=%d/corrupt=%v", tc.raw, tc.window, tc.corrupt)
		t.Run(name, func(t *testing.T) {
			var inj *fault.Injector
			if tc.corrupt {
				inj = fault.Plan{Seed: 21, Rules: []fault.Rule{fault.FrameCorrupt(0, -1, 1)}}.New()
			}
			cc := cluster.Comet(3)
			cc.RanksPerNode = 1
			cc.ByteScale = 4
			var got [3]goldenExchange
			err := mpi.Run(cc, func(c *mpi.Comm) error {
				g, err := grid.New(world, 8, 8)
				if err != nil {
					return err
				}
				pt := &Partitioner{Grid: g, WindowCells: tc.window, SkipBadFrames: tc.corrupt}
				if inj != nil {
					pt.FrameFault = inj.FrameFault(c.Rank())
				}
				var stats ExchangeStats
				if tc.raw {
					opt := ReadOptions{BlockSize: 1 << 10, Framing: LengthPrefixed()}
					_, _, stats, err = ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKBParser(), opt, pt)
				} else {
					var local []geom.Geometry
					for i := c.Rank(); i < len(geoms); i += c.Size() {
						local = append(local, geoms[i])
					}
					ex, serr := pt.Stream(c)
					if serr != nil {
						return serr
					}
					half := len(local) / 2
					if err := ex.Add(local[:half]); err != nil {
						return err
					}
					if err := ex.Add(local[half:]); err != nil {
						return err
					}
					_, stats, err = ex.Finish()
				}
				if err != nil {
					return err
				}
				if tc.corrupt && c.Rank() == 0 && stats.FramesQuarantined == 0 {
					return fmt.Errorf("rank 0 quarantined nothing; the plan exercised nothing")
				}
				got[c.Rank()] = goldenExchange{math.Float64bits(c.Now()), stats.BytesSent, stats.BytesRecv, stats.GeomsRecv}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if got[r] != tc.want[r] {
					t.Errorf("rank %d = %#v\n\twant %#v", r, got[r], tc.want[r])
				}
			}
		})
	}
}
