package mpiio

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
)

// goldenRank is what one rank observes of one collective call: its virtual
// clock bit for bit, its traffic counters, the call's result, and a
// checksum of the bytes read (reads) or of the whole file afterwards
// (writes).
type goldenRank struct {
	now        uint64
	bytes, msg int64
	n          int
	err        string
	sum        uint64
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// goldenCall is one rank's part in a golden case: the request it issues
// and, for the view calls, the view it installs first (nil keeps the
// default contiguous view, as an idle rank of Figure 16 does).
type goldenCall struct {
	off, length int64
	viewDisp    int64 // -1: no view
}

// TestCollectiveClockGolden pins the four two-phase collective calls bit
// for bit: every rank's virtual clock and its per-kind ledger (IO for the
// aggregators' file access, Aggregate for the offset-list scans and
// pieces, Transport and Wait for the exchange), bytes and messages sent,
// result and data, on a 3-node × 2-rank Lustre layout at scale 4 with a 1 KB
// cb_buffer_size (256 real bytes, 4 cycles per 1 KB real stripe, 20 cycles
// over the read hull). Requests are uneven, rank 5 is idle, one read runs
// past EOF and the view calls use a round-robin TypeVector view of
// 100-byte records (rank 3 has none in ReadViewAll, ranks 4 and 5 none in
// WriteViewAll). Writes land on a file whose first 3000 bytes exist, so
// aggregators read-modify-write across holes.
func TestCollectiveClockGolden(t *testing.T) {
	const fileSize = 9000
	cases := []struct {
		name   string
		write  bool
		view   bool
		calls  [6]goldenCall
		want   [6]goldenRank
		ledger [6]simtime.Ledger
	}{
		{
			name: "ReadAtAll",
			calls: [6]goldenCall{
				{0, 1500, -1}, {1500, 700, -1}, {2200, 2600, -1},
				{4800, 1000, -1}, {5800, 4000, -1}, {0, 0, -1},
			},
			want: [6]goldenRank{
				{0x40101ee30ec622be, 3880, 18, 1500, "", 0xbf73659362449c20},
				{0x3ff01ee10d0d6b46, 0, 0, 700, "", 0x9827dc2a1fa2a9c0},
				{0x4009cb076e6f8582, 3072, 14, 2600, "", 0x8e960594c668ea69},
				{0x4003584686b34928, 0, 0, 1000, "", 0xd220ebfc10ccdcb1},
				{0x40101ee395600b75, 0, 0, 3200, "EOF", 0x9866a28ccc5f13d9},
				{0x0, 0, 0, 0, "", 0xcbf29ce484222325},
			},
			ledger: [6]simtime.Ledger{
				{simtime.IO: 4.0301226, simtime.Transport: 3.440000000000001e-05, simtime.Wait: 6.031428571390274e-06},
				{simtime.Wait: 1.007538844095238},
				{simtime.IO: 3.2241024, simtime.Transport: 2.32e-05, simtime.Wait: 9.668000000351284e-06},
				{simtime.Wait: 2.4181032679999994},
				{simtime.Wait: 4.030165037142855},
				{},
			},
		},
		{
			name: "ReadViewAll",
			view: true,
			calls: [6]goldenCall{
				{0, 400, 0}, {50, 600, 100}, {0, 1000, 200},
				{200, 300, -1}, {0, 2400, 400}, {0, 0, -1},
			},
			want: [6]goldenRank{
				{0x4010508ed80ab4c1, 2772, 35, 400, "", 0x140781522bbb1025},
				{0x3ff746b2bf4e96a9, 496, 5, 600, "", 0x6bd366ca5e0e71f9},
				{0x400a2e2b9c5608ca, 2040, 20, 1000, "", 0x42a20ed8e8b87bd9},
				{0x3fdad25543125d1b, 320, 5, 300, "", 0x4a271fc0a05abbdc},
				{0x4010508f5ea49d78, 608, 5, 2200, "EOF", 0xa670bdbbc7bb4189},
				{0x3ee86b04a33f338e, 560, 5, 0, "", 0xcbf29ce484222325},
			},
			ledger: [6]simtime.Ledger{
				{simtime.IO: 4.0301226, simtime.Aggregate: 0.04846799999999998, simtime.Transport: 5.5600000000000017e-05, simtime.Wait: 2.370628571432736e-05},
				{simtime.Transport: 9.999999999999999e-06, simtime.Wait: 1.4547503104523807},
				{simtime.IO: 3.2241024, simtime.Aggregate: 0.0323744, simtime.Transport: 3.2000000000000005e-05, simtime.Wait: 0.01603531828571456},
				{simtime.Transport: 9.999999999999999e-06, simtime.Wait: 0.41907771085714285},
				{simtime.Transport: 2e-06, simtime.Wait: 4.078669911999997},
				{simtime.Transport: 9.999999999999999e-06, simtime.Wait: 1.6434285714285697e-06},
			},
		},
		{
			name:  "WriteAtAll",
			write: true,
			calls: [6]goldenCall{
				{0, 1500, -1}, {1500, 700, -1}, {2600, 2200, -1},
				{4800, 1000, -1}, {7000, 2000, -1}, {0, 0, -1},
			},
			want: [6]goldenRank{
				{0x40101edd31604908, 476, 2, 1500, "", 0xf29c1e81875e2ab4},
				{0x3edad7f29abcaf48, 700, 4, 700, "", 0xf29c1e81875e2ab4},
				{0x4009cafe9aab550f, 1176, 5, 2200, "", 0xf29c1e81875e2ab4},
				{0x3ed5cf751db94e6a, 1000, 5, 1000, "", 0xf29c1e81875e2ab4},
				{0x3ef2dfd694ccab3f, 2000, 9, 2000, "", 0xf29c1e81875e2ab4},
				{0x0, 0, 0, 0, "", 0xf29c1e81875e2ab4},
			},
			ledger: [6]simtime.Ledger{
				{simtime.IO: 4.0301226, simtime.Transport: 4e-06, simtime.Wait: 1.4058857142895675e-05},
				{simtime.Transport: 6.4e-06},
				{simtime.IO: 3.2241024, simtime.Transport: 9.999999999999999e-06, simtime.Wait: 6.0314285714332785e-06},
				{simtime.Transport: 5.199999999999999e-06},
				{simtime.Transport: 1.8e-05},
				{},
			},
		},
		{
			name:  "WriteViewAll",
			write: true,
			view:  true,
			calls: [6]goldenCall{
				{0, 400, 0}, {30, 250, 100}, {0, 100, 200},
				{120, 280, 300}, {2000, 700, -1}, {0, 0, -1},
			},
			want: [6]goldenRank{
				{0x3ff6dba93346fa5a, 336, 8, 400, "", 0x426a4b9a5ca46af3},
				{0x3eee3e9951965f8a, 442, 8, 250, "", 0x426a4b9a5ca46af3},
				{0x3fea3e2e5d7a485f, 260, 7, 100, "", 0x426a4b9a5ca46af3},
				{0x3eee36d3b9ea4dfa, 472, 8, 280, "", 0x426a4b9a5ca46af3},
				{0x3ef6a8c32b3039ae, 892, 9, 700, "", 0x426a4b9a5ca46af3},
				{0x3ee8633f0b9321fd, 144, 5, 0, "", 0x426a4b9a5ca46af3},
			},
			ledger: [6]simtime.Ledger{
				{simtime.IO: 1.4105419000000001, simtime.Aggregate: 0.018054599999999997, simtime.Transport: 8e-06, simtime.Wait: 2.3658857142857128e-05},
				{simtime.Transport: 1.2799999999999998e-05, simtime.Wait: 1.6217142857142844e-06},
				{simtime.IO: 0.8060256, simtime.Aggregate: 0.0120312, simtime.Transport: 6e-06, simtime.Wait: 0.0020276679999999985},
				{simtime.Transport: 1.2799999999999998e-05, simtime.Wait: 1.607238095238097e-06},
				{simtime.Transport: 9.999999999999999e-06, simtime.Wait: 1.1609523809523812e-05},
				{simtime.Transport: 9.999999999999999e-06, simtime.Wait: 1.6289523809523823e-06},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := pfs.New(pfs.CometLustre())
			if err != nil {
				t.Fatal(err)
			}
			pf, err := fs.Create("golden.bin", 4, 4096)
			if err != nil {
				t.Fatal(err)
			}
			content := make([]byte, fileSize)
			if tc.write {
				content = content[:3000]
			}
			for i := range content {
				content[i] = byte(i*7 + i/251)
			}
			pf.Write(content)
			pf.SetScale(4)

			cc := cluster.Comet(3)
			cc.RanksPerNode = 2
			var got [6]goldenRank
			var ledger [6]simtime.Ledger
			err = mpi.Run(cc, func(c *mpi.Comm) error {
				f := Open(c, pf, Hints{CBBufferSize: 1024})
				call := tc.calls[c.Rank()]
				if tc.view && call.viewDisp >= 0 {
					rec, err := mpi.TypeContiguous(100, mpi.Byte)
					if err != nil {
						return err
					}
					ft, err := mpi.TypeVector(4, 1, 5, rec)
					if err != nil {
						return err
					}
					if err := f.SetView(call.viewDisp, mpi.Byte, ft); err != nil {
						return err
					}
				}
				buf := make([]byte, call.length)
				for i := range buf {
					buf[i] = byte(c.Rank()*41 + i)
				}
				var n int
				var err error
				switch {
				case tc.write && tc.view:
					n, err = f.WriteViewAll(buf, call.off)
				case tc.write:
					n, err = f.WriteAtAll(buf, call.off)
				case tc.view:
					n, err = f.ReadViewAll(buf, call.off)
				default:
					n, err = f.ReadAtAll(buf, call.off)
				}
				g := goldenRank{now: math.Float64bits(c.Now()), bytes: c.BytesSent(), msg: c.MsgsSent(), n: n}
				if err != nil {
					g.err = err.Error()
				}
				if !tc.write {
					g.sum = fnvSum(buf)
				}
				got[c.Rank()] = g
				ledger[c.Rank()] = c.Ledger()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.write {
				file := make([]byte, pf.Size())
				pf.ReadAt(file, 0)
				for r := range got {
					got[r].sum = fnvSum(file)
				}
			}
			for r := range got {
				if got[r] != tc.want[r] {
					t.Errorf("rank %d = %#v\n\twant %#v", r, got[r], tc.want[r])
				}
				if d := ledger[r].Diff(tc.ledger[r]); d != "" {
					t.Errorf("rank %d ledger: %s\n\tgot %#v", r, d, ledger[r])
				}
				now := math.Float64frombits(got[r].now)
				if sum := ledger[r].Sum(); math.Abs(sum-now) > 1e-12*now {
					t.Errorf("rank %d ledger sums to %v, clock reads %v", r, sum, now)
				}
			}
		})
	}
}
