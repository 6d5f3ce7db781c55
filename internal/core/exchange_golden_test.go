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
	"repro/internal/simtime"
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
// every rank's final virtual clock, its per-kind ledger, BytesSent,
// BytesRecv and GeomsRecv, on 3 ranks of a Comet layout at byte scale 4,
// over 400 generated geometries in an 8×8 grid with the R-tree cell
// lookup. The rows:
//
//   - Exchanger.Add (each rank adds every third geometry, in two batches)
//     and the raw ReadExchange path (length-prefixed WKB read by
//     WKBParser, 1 KB blocks), each in one phase and in sliding windows of
//     3 cells, clean and with one FrameCorrupt rule (rank 0's part from
//     rank 1, every phase) quarantined under SkipBadFrames. The rule flips
//     a bit of the part's first frame length, so the whole part goes.
//   - Exchanger.Add with the same rule picking the part's first frame
//     (Rule.Frame 1), whose cell id it sets outside the grid (misroute),
//     so a quarantine is followed by frames that decode.
//   - The raw path over the adaptive partition SamplePartition builds from
//     the same file, which adds the sample's Parse charge.
//
// On every row but the sample's, the read (raw rows) and FinishStream are
// the only calls that charge — Stream, Add and the raw path's staging never
// do — so ReadStats' ledger delta plus ExchangeStats' must be the pinned
// ledger, kind by kind: the per-call views lose no charge and count none
// twice.
//
// The parity tests compare one path with another; this one fails when a
// charge both paths share — the deserialization charges in decodePart and
// deliverKept, FinishStream's serialization and projection charges — is
// dropped or moved, and the ledger names its kind (Decode, Encode,
// Project; the raw rows also pin the reader's Parse and IO).
func TestExchangeClockGolden(t *testing.T) {
	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	geoms := genGeoms(t, 400, 41)
	pf := makeWKBFile(t, geoms)
	pf.SetScale(4)
	cases := []struct {
		raw     bool
		window  int
		corrupt bool
		sample  bool // the grid is SamplePartition's, not the 8×8 one
		// misroute corrupts the cell id of the first frame of rank 0's part
		// from rank 1: that frame is quarantined and the rest of the part
		// still decodes.
		misroute bool
		want     [3]goldenExchange
		ledger   [3]simtime.Ledger
	}{
		{raw: false, window: 0, corrupt: false, want: [3]goldenExchange{
			{0x3facefa415c0ece1, 545504, 593816, 2640},
			{0x3fac2a399f6f8494, 511936, 569308, 2544},
			{0x3fac52e3577c604c, 676233, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.0006427754297571349, simtime.Encode: 0.017111705600000766, simtime.Decode: 0.03626086879999974, simtime.Transport: 4e-06, simtime.Wait: 0.002496465576536728},
			{simtime.Project: 0.0006198741205798428, simtime.Encode: 0.01586271040000081, simtime.Decode: 0.03472875439999974, simtime.Transport: 4e-06, simtime.Wait: 0.003794312942856832},
			{simtime.Project: 0.0006723741205798432, simtime.Encode: 0.019338726200000496, simtime.Decode: 0.035038988199999746, simtime.Transport: 4e-06, simtime.Wait: 0.0002657971428571444},
		}},
		{raw: false, window: 0, corrupt: true, want: [3]goldenExchange{
			{0x3fa76d4e658b2f9b, 545504, 593816, 1838},
			{0x3fac2a399f6f8494, 511936, 569308, 2544},
			{0x3fac52e3577c604c, 676233, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.0006427754297571349, simtime.Encode: 0.017111705600000766, simtime.Decode: 0.02550086879999982, simtime.Transport: 4e-06, simtime.Wait: 0.002496465576536728},
			{simtime.Project: 0.0006198741205798428, simtime.Encode: 0.01586271040000081, simtime.Decode: 0.03472875439999974, simtime.Transport: 4e-06, simtime.Wait: 0.003794312942856832},
			{simtime.Project: 0.0006723741205798432, simtime.Encode: 0.019338726200000496, simtime.Decode: 0.035038988199999746, simtime.Transport: 4e-06, simtime.Wait: 0.0002657971428571444},
		}},
		{raw: false, window: 3, corrupt: false, want: [3]goldenExchange{
			{0x3fae729b0739cbff, 545504, 593816, 2640},
			{0x3fadbbb70142d712, 511936, 569308, 2544},
			{0x3fadbb2ef24daf5e, 676233, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.0006427754297571349, simtime.Encode: 0.01711170560000002, simtime.Decode: 0.0362608688, simtime.Transport: 8.799999999999994e-05, simtime.Wait: 0.005364771347965628},
			{simtime.Project: 0.0006198741205798428, simtime.Encode: 0.015862710400000014, simtime.Decode: 0.034728754400000006, simtime.Transport: 8.999999999999994e-05, simtime.Wait: 0.006771436828571491},
			{simtime.Project: 0.0006723741205798432, simtime.Encode: 0.019338726200000034, simtime.Decode: 0.03503898820000002, simtime.Transport: 8.999999999999994e-05, simtime.Wait: 0.0029286323714286288},
		}},
		{raw: false, window: 3, corrupt: true, want: [3]goldenExchange{
			{0x3fae729b0739cbff, 545504, 593816, 2614},
			{0x3fadbbb70142d712, 511936, 569308, 2544},
			{0x3fadbb2ef24daf5e, 676233, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.0006427754297571349, simtime.Encode: 0.01711170560000002, simtime.Decode: 0.03595686879999999, simtime.Transport: 8.799999999999994e-05, simtime.Wait: 0.005668771347965628},
			{simtime.Project: 0.0006198741205798428, simtime.Encode: 0.015862710400000014, simtime.Decode: 0.034728754400000006, simtime.Transport: 8.999999999999994e-05, simtime.Wait: 0.006771436828571491},
			{simtime.Project: 0.0006723741205798432, simtime.Encode: 0.019338726200000034, simtime.Decode: 0.03503898820000002, simtime.Transport: 8.999999999999994e-05, simtime.Wait: 0.0029286323714286288},
		}},
		{raw: true, window: 0, corrupt: false, want: [3]goldenExchange{
			{0x40153479f1dd37f0, 676373, 593816, 2640},
			{0x401532e50241e33c, 587574, 569308, 2544},
			{0x40153339a2d85a22, 469726, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0037911079999999975, simtime.Project: 0.0007180911398846398, simtime.Encode: 0.019760922200000395, simtime.Decode: 0.03626086879999974, simtime.Transport: 6.0008000000000026e-05, simtime.Wait: 0.0009898342857117548},
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0038766159999999994, simtime.Project: 0.0006621754297571351, simtime.Encode: 0.018434603600000578, simtime.Decode: 0.03472875439999975, simtime.Transport: 5.800000000000002e-05, simtime.Wait: 0.002275974881557341},
			{simtime.IO: 5.239663000000001, simtime.Parse: 0.0036753719999999966, simtime.Project: 0.0005547571012750462, simtime.Encode: 0.014117616400000662, simtime.Decode: 0.03503898819999974, simtime.Transport: 5.800000000000002e-05, simtime.Wait: 0.006916818124326596},
		}},
		{raw: true, window: 0, corrupt: true, want: [3]goldenExchange{
			{0x401527cfbf6f269b, 676373, 593816, 1709},
			{0x401532e50241e33c, 587574, 569308, 2544},
			{0x40153339a2d85a22, 469726, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0037911079999999975, simtime.Project: 0.0007180911398846398, simtime.Encode: 0.019760922200000395, simtime.Decode: 0.023892868799999828, simtime.Transport: 6.0008000000000026e-05, simtime.Wait: 0.0009898342857117548},
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0038766159999999994, simtime.Project: 0.0006621754297571351, simtime.Encode: 0.018434603600000578, simtime.Decode: 0.03472875439999975, simtime.Transport: 5.800000000000002e-05, simtime.Wait: 0.002275974881557341},
			{simtime.IO: 5.239663000000001, simtime.Parse: 0.0036753719999999966, simtime.Project: 0.0005547571012750462, simtime.Encode: 0.014117616400000662, simtime.Decode: 0.03503898819999974, simtime.Transport: 5.800000000000002e-05, simtime.Wait: 0.006916818124326596},
		}},
		{raw: true, window: 3, corrupt: false, want: [3]goldenExchange{
			{0x401536f6f575cbdc, 676373, 593816, 2640},
			{0x4015358917e67de4, 587574, 569308, 2544},
			{0x4015358807c89394, 469726, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0037911079999999975, simtime.Project: 0.0007180911398846398, simtime.Encode: 0.019760922200000024, simtime.Decode: 0.03626086879999999, simtime.Transport: 0.0001440079999999998, simtime.Wait: 0.0033358500285811665},
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0038766159999999994, simtime.Project: 0.0006621754297571351, simtime.Encode: 0.01843460360000003, simtime.Decode: 0.034728754400000006, simtime.Transport: 0.0001439999999999998, simtime.Wait: 0.004769032738715817},
			{simtime.IO: 5.239663000000001, simtime.Parse: 0.0036753719999999966, simtime.Project: 0.0005547571012750462, simtime.Encode: 0.014117616400000008, simtime.Decode: 0.035038988199999996, simtime.Transport: 0.0001439999999999998, simtime.Wait: 0.00908299361005288},
		}},
		{raw: true, window: 3, corrupt: true, want: [3]goldenExchange{
			{0x401536f6f575cbdc, 676373, 593816, 2614},
			{0x4015358917e67de4, 587574, 569308, 2544},
			{0x4015358807c89394, 469726, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0037911079999999975, simtime.Project: 0.0007180911398846398, simtime.Encode: 0.019760922200000024, simtime.Decode: 0.03592086879999999, simtime.Transport: 0.0001440079999999998, simtime.Wait: 0.0036758500285807294},
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0038766159999999994, simtime.Project: 0.0006621754297571351, simtime.Encode: 0.01843460360000003, simtime.Decode: 0.034728754400000006, simtime.Transport: 0.0001439999999999998, simtime.Wait: 0.004769032738715817},
			{simtime.IO: 5.239663000000001, simtime.Parse: 0.0036753719999999966, simtime.Project: 0.0005547571012750462, simtime.Encode: 0.014117616400000008, simtime.Decode: 0.035038988199999996, simtime.Transport: 0.0001439999999999998, simtime.Wait: 0.00908299361005288},
		}},
		{raw: false, window: 0, corrupt: false, misroute: true, want: [3]goldenExchange{
			{0x3facee116e89dbd3, 545504, 593816, 2639},
			{0x3fac2a399f6f8494, 511936, 569308, 2544},
			{0x3fac52e3577c604c, 676233, 570549, 2561},
		}, ledger: [3]simtime.Ledger{
			{simtime.Project: 0.0006427754297571349, simtime.Encode: 0.017111705600000766, simtime.Decode: 0.03624886879999974, simtime.Transport: 4e-06, simtime.Wait: 0.002496465576536728},
			{simtime.Project: 0.0006198741205798428, simtime.Encode: 0.01586271040000081, simtime.Decode: 0.03472875439999974, simtime.Transport: 4e-06, simtime.Wait: 0.003794312942856832},
			{simtime.Project: 0.0006723741205798432, simtime.Encode: 0.019338726200000496, simtime.Decode: 0.035038988199999746, simtime.Transport: 4e-06, simtime.Wait: 0.0002657971428571444},
		}},
		{raw: true, window: 0, corrupt: false, sample: true, want: [3]goldenExchange{
			{0x4015e37d03e278e3, 202263, 230170, 1066},
			{0x4015de160aecf4b5, 176038, 157047, 731},
			{0x4015dd13e49195c2, 144976, 136060, 632},
		}, ledger: [3]simtime.Ledger{
			{simtime.IO: 5.4428040000000015, simtime.Parse: 0.005925607999999998, simtime.Project: 0.00038492834410107715, simtime.Encode: 0.006427168199999961, simtime.Decode: 0.01563030599999994, simtime.Transport: 8.041199999999996e-05, simtime.Wait: 0.0009041599999968786},
			{simtime.IO: 5.239665600000001, simtime.Parse: 0.0038766159999999994, simtime.Project: 0.0003540095760927692, simtime.Encode: 0.005972453199999969, simtime.Decode: 0.010354684599999971, simtime.Transport: 6.000000000000002e-05, simtime.Wait: 0.2065975977680089},
			{simtime.IO: 5.239663000000001, simtime.Parse: 0.0036753719999999966, simtime.Project: 0.00030458768008307687, simtime.Encode: 0.00465096639999997, simtime.Decode: 0.00938490799999999, simtime.Transport: 6.000000000000002e-05, simtime.Wait: 0.2081573636068795},
		}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("raw=%v/window=%d/corrupt=%v", tc.raw, tc.window, tc.corrupt)
		if tc.sample {
			name += "/sample"
		}
		if tc.misroute {
			name += "/misroute"
		}
		t.Run(name, func(t *testing.T) {
			var inj *fault.Injector
			if tc.corrupt || tc.misroute {
				rule := fault.FrameCorrupt(0, -1, 1)
				if tc.misroute {
					rule.Frame = 1
				}
				inj = fault.Plan{Seed: 21, Rules: []fault.Rule{rule}}.New()
			}
			cc := cluster.Comet(3)
			cc.RanksPerNode = 1
			cc.ByteScale = 4
			var got [3]goldenExchange
			var ledger, views [3]simtime.Ledger
			err := mpi.Run(cc, func(c *mpi.Comm) error {
				var g grid.Partition
				var err error
				opt := ReadOptions{BlockSize: 1 << 10, Framing: LengthPrefixed()}
				if tc.sample {
					g, err = SamplePartition(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKBParser(), opt, PartitionOptions{Envelope: &world, SampleStride: 4})
				} else {
					g, err = grid.New(world, 8, 8)
				}
				if err != nil {
					return err
				}
				pt := &Partitioner{Grid: g, WindowCells: tc.window, SkipBadFrames: tc.corrupt || tc.misroute}
				if inj != nil {
					pt.FrameFault = inj.FrameFault(c.Rank())
				}
				var rstats ReadStats
				var stats ExchangeStats
				if tc.raw {
					_, rstats, stats, err = ReadExchange(c, mpiio.Open(c, pf, mpiio.Hints{}), NewWKBParser(), opt, pt)
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
				if (tc.corrupt || tc.misroute) && c.Rank() == 0 && stats.FramesQuarantined == 0 {
					return fmt.Errorf("rank 0 quarantined nothing; the plan exercised nothing")
				}
				got[c.Rank()] = goldenExchange{math.Float64bits(c.Now()), stats.BytesSent, stats.BytesRecv, stats.GeomsRecv}
				ledger[c.Rank()] = c.Ledger()
				for k := range views[c.Rank()] {
					views[c.Rank()][k] = rstats.Ledger[k] + stats.Ledger[k]
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if got[r] != tc.want[r] {
					t.Errorf("rank %d = %#v\n\twant %#v", r, got[r], tc.want[r])
				}
				checkLedger(t, r, math.Float64frombits(got[r].now), ledger[r], tc.ledger[r])
				if !tc.sample {
					if d := views[r].Diff(tc.ledger[r]); d != "" {
						t.Errorf("rank %d read + exchange views: %s", r, d)
					}
				}
			}
		})
	}
}

// checkLedger fails when rank r's per-kind ledger differs from want in any
// kind's bits, naming each kind that moved, and when the ledger does not
// sum to the rank's clock within 1e-12 relative.
func checkLedger(t *testing.T, r int, now float64, got, want simtime.Ledger) {
	t.Helper()
	if d := got.Diff(want); d != "" {
		t.Errorf("rank %d ledger: %s\n\tgot %#v", r, d, got)
	}
	if sum := got.Sum(); math.Abs(sum-now) > 1e-12*now {
		t.Errorf("rank %d ledger sums to %v, clock reads %v", r, sum, now)
	}
}
