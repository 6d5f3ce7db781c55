package fault_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// script drives every hook of in through a fixed sequence of calls and logs
// each answer, so two injectors can be compared call for call.
func script(in *fault.Injector) []string {
	var log []string
	for rank := 0; rank < 3; rank++ {
		for idx := 0; idx < 12; idx++ {
			for _, kind := range []mpi.OpKind{mpi.OpSend, mpi.OpRecv, mpi.OpSendRecv} {
				d := in.Decide(mpi.FaultOp{Rank: rank, Index: idx, Kind: kind, Peer: (rank + 1) % 3, Tag: 77 + idx%2})
				log = append(log, fmt.Sprintf("decide %d %d %v: %+v", rank, idx, kind, d))
			}
		}
	}
	for _, file := range []string{"a.wkt", "b.wkb"} {
		for off := int64(0); off < 4096; off += 512 {
			for try := 0; try < 3; try++ {
				rf := in.ReadFault(file, off, 512, int(off/1024))
				log = append(log, fmt.Sprintf("read %s %d %d: %v %d", file, off, try, rf.Err, rf.Short))
			}
		}
	}
	for rank := 0; rank < 3; rank++ {
		hook := in.FrameFault(rank)
		for phase := 0; phase < 2; phase++ {
			for src := 0; src < 3; src++ {
				part := make([]byte, 16)
				hook(phase, src, part)
				log = append(log, fmt.Sprintf("frame %d %d %d: %x", rank, phase, src, part))
			}
		}
		for batch := 0; batch < 4; batch++ {
			log = append(log, fmt.Sprintf("sink %d %d: %v", rank, batch, in.SinkFault(rank, batch)))
		}
	}
	return log
}

// TestReplayDeterminism: two injectors compiled from one Plan answer the
// same scripted sequence of Decide, ReadFault, FrameFault and SinkFault
// calls identically, and the script exercises every rule kind.
func TestReplayDeterminism(t *testing.T) {
	plan := fault.Plan{Seed: 7, Rules: []fault.Rule{
		fault.DropAt(1, 3),
		fault.CorruptTag(0, 77),
		fault.DelayTag(2, 78, 0.5),
		fault.CrashAt(2, 9),
		fault.TransientRead("a.wkt", 1, 2),
		fault.PermanentRead("b.wkb", 3),
		fault.ShortReadAt("b.wkb", -1, 7),
		fault.SinkErrAt(1, 2),
		fault.FrameCorrupt(0, -1, 1),
	}}
	first, second := script(plan.New()), script(plan.New())
	if !reflect.DeepEqual(first, second) {
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("call %d: %q, then %q", i, first[i], second[i])
			}
		}
	}
	clean := script(fault.Plan{}.New())
	changed := 0
	for i := range first {
		if first[i] != clean[i] {
			changed++
		}
	}
	// One drop, corrupt, delay and crash each; 2 stripe-1 offsets × 2
	// transient tries; 2 stripe-3 offsets × 3 permanent tries; the first try
	// at each of the 6 other b.wkb offsets short; one frame; one sink batch.
	if want := 4 + 4 + 6 + 6 + 1 + 1; changed != want {
		t.Errorf("the plan changed %d answers of the script, want %d", changed, want)
	}
	if other := script(fault.Plan{Seed: 8, Rules: plan.Rules}.New()); reflect.DeepEqual(first, other) {
		t.Error("a different seed flipped the same bits")
	}
}

// TestTransientReadBudget: TransientRead(file, stripe, 3) fails each read
// offset exactly 3 times per injector, with a retryable injected error, and
// a fresh injector from the same plan starts the budget over.
func TestTransientReadBudget(t *testing.T) {
	plan := fault.Plan{Rules: []fault.Rule{fault.TransientRead("f", 2, 3)}}
	fires := func(in *fault.Injector, off int64) int {
		n := 0
		for try := 0; try < 10; try++ {
			rf := in.ReadFault("f", off, 64, 2)
			if rf.Err == nil {
				continue
			}
			if !errors.Is(rf.Err, pfs.ErrTransientRead) || !errors.Is(rf.Err, fault.ErrInjected) {
				t.Fatalf("transient fault %v is not an injected retryable error", rf.Err)
			}
			n++
		}
		return n
	}
	for round := 0; round < 2; round++ {
		in := plan.New()
		for _, off := range []int64{2048, 2112} {
			if n := fires(in, off); n != 3 {
				t.Errorf("injector %d offset %d: fired %d times, want 3", round, off, n)
			}
		}
		if rf := in.ReadFault("f", 0, 64, 0); rf.Err != nil {
			t.Errorf("stripe 0 matched a stripe-2 rule: %v", rf.Err)
		}
		if rf := in.ReadFault("g", 2048, 64, 2); rf.Err != nil {
			t.Errorf("file g matched a rule for f: %v", rf.Err)
		}
	}
}

// TestWildcards: -1 in a rank, stripe, op-index, phase, source or batch
// selector (and "" for the file) matches every value, while a concrete
// selector matches only itself; every rule still fires once per scope.
func TestWildcards(t *testing.T) {
	send := func(rank, idx int) mpi.FaultOp {
		return mpi.FaultOp{Rank: rank, Index: idx, Kind: mpi.OpSend, Tag: 5}
	}
	t.Run("message", func(t *testing.T) {
		in := fault.Plan{Rules: []fault.Rule{fault.DropAt(-1, 4)}}.New()
		for rank := 0; rank < 3; rank++ {
			if d := in.Decide(send(rank, 3)); d.Action != mpi.FaultNone {
				t.Errorf("rank %d op 3 matched op 4: %+v", rank, d)
			}
			if d := in.Decide(mpi.FaultOp{Rank: rank, Index: 4, Kind: mpi.OpRecv}); d.Action != mpi.FaultNone {
				t.Errorf("rank %d: a receive matched a message rule: %+v", rank, d)
			}
			if d := in.Decide(send(rank, 4)); d.Action != mpi.FaultDrop {
				t.Errorf("rank %d op 4: %+v, want a drop", rank, d)
			}
		}
		in = fault.Plan{Rules: []fault.Rule{fault.DropAt(1, -1)}}.New()
		if d := in.Decide(send(0, 0)); d.Action != mpi.FaultNone {
			t.Errorf("rank 0 matched a rank-1 rule: %+v", d)
		}
		for idx, want := range []mpi.FaultAction{mpi.FaultDrop, mpi.FaultNone} {
			if d := in.Decide(send(1, 10+idx)); d.Action != want {
				t.Errorf("rank 1 op %d: %+v, want %v (once per rank)", 10+idx, d, want)
			}
		}
	})
	t.Run("crash", func(t *testing.T) {
		in := fault.Plan{Rules: []fault.Rule{fault.CrashAt(-1, 2)}}.New()
		for rank := 0; rank < 3; rank++ {
			if d := in.Decide(mpi.FaultOp{Rank: rank, Index: 2, Kind: mpi.OpRecv}); d.Action != mpi.FaultCrash {
				t.Errorf("rank %d op 2: %+v, want a crash", rank, d)
			}
		}
	})
	t.Run("read", func(t *testing.T) {
		in := fault.Plan{Rules: []fault.Rule{fault.PermanentRead("", -1)}}.New()
		for stripe := 0; stripe < 4; stripe++ {
			for _, file := range []string{"a", "b"} {
				if rf := in.ReadFault(file, int64(stripe)*100, 10, stripe); rf.Err == nil {
					t.Errorf("file %s stripe %d escaped a wildcard permanent rule", file, stripe)
				}
			}
		}
		in = fault.Plan{Rules: []fault.Rule{fault.ShortReadAt("a", -1, 3)}}.New()
		for stripe := 0; stripe < 4; stripe++ {
			if rf := in.ReadFault("a", int64(stripe)*100, 10, stripe); rf.Short != 3 {
				t.Errorf("stripe %d: short %d, want 3", stripe, rf.Short)
			}
		}
	})
	t.Run("frame and sink", func(t *testing.T) {
		in := fault.Plan{Rules: []fault.Rule{fault.FrameCorrupt(-1, -1, -1), fault.SinkErrAt(-1, -1)}}.New()
		for rank := 0; rank < 3; rank++ {
			part := make([]byte, 8)
			in.FrameFault(rank)(rank+5, 2*rank, part)
			if reflect.DeepEqual(part, make([]byte, 8)) {
				t.Errorf("rank %d: a wildcard frame rule left the part alone", rank)
			}
			if err := in.SinkFault(rank, 3*rank+1); !errors.Is(err, fault.ErrInjected) {
				t.Errorf("rank %d: sink fault %v, want an injected error", rank, err)
			}
			if err := in.SinkFault(rank, 0); err != nil {
				t.Errorf("rank %d: sink rule fired twice: %v", rank, err)
			}
		}
		in = fault.Plan{Rules: []fault.Rule{fault.FrameCorrupt(1, 0, 2)}}.New()
		for _, c := range []struct{ rank, phase, src int }{{0, 0, 2}, {1, 1, 2}, {1, 0, 0}} {
			part := make([]byte, 8)
			in.FrameFault(c.rank)(c.phase, c.src, part)
			if !reflect.DeepEqual(part, make([]byte, 8)) {
				t.Errorf("%+v matched FrameCorrupt(1, 0, 2)", c)
			}
		}
	})
}

// TestFrameCorruptPicksFrame: a rule with Frame k > 0 sets the top bit of
// the k-th frame's cell id and touches nothing else; a partition with
// fewer frames is left alone, and the rule stays armed for the next one.
func TestFrameCorruptPicksFrame(t *testing.T) {
	// Three frames with payloads of 4, 0 and 2 bytes, at offsets 0, 12, 20.
	frames := func() []byte {
		part := make([]byte, 30)
		for _, f := range [][2]int{{0, 4}, {12, 0}, {20, 2}} {
			binary.LittleEndian.PutUint32(part[f[0]:], 5)
			binary.LittleEndian.PutUint32(part[f[0]+4:], uint32(f[1]))
		}
		return part
	}
	for k, at := range map[int]int{1: 0, 2: 12, 3: 20} {
		rule := fault.FrameCorrupt(-1, -1, -1)
		rule.Frame = k
		hook := fault.Plan{Rules: []fault.Rule{rule}}.New().FrameFault(0)
		if k == 3 {
			short := frames()[:20] // holds frames 1 and 2 only
			if hook(0, 1, short); !bytes.Equal(short, frames()[:20]) {
				t.Errorf("frame 3 corrupted in a two-frame partition")
			}
		}
		got, want := frames(), frames()
		hook(0, 1, got)
		want[at+3] |= 0x80
		if !bytes.Equal(got, want) {
			t.Errorf("Frame %d:\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestFrameCorruptHitsLength: FrameCorrupt flips exactly one bit, always in
// the length field of the part's first exchange frame ([cell u32][len u32]
// [payload]), whatever the seed and coordinates — so the frame never
// decodes: a strict exchange fails, and under SkipBadFrames every rank
// quarantines it.
func TestFrameCorruptHitsLength(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		in := fault.Plan{Seed: seed, Rules: []fault.Rule{fault.FrameCorrupt(-1, -1, -1)}}.New()
		for rank := 0; rank < 4; rank++ {
			part := make([]byte, 24)
			in.FrameFault(rank)(int(seed%3), rank^1, part)
			flipped := 0
			for i, b := range part {
				flipped += bits.OnesCount8(b)
				if b != 0 && (i < 4 || i >= 8) {
					t.Errorf("seed %d rank %d: byte %d flipped, outside the length field", seed, rank, i)
				}
			}
			if flipped != 1 {
				t.Errorf("seed %d rank %d: %d bits flipped, want 1", seed, rank, flipped)
			}
		}
	}

	world := geom.Envelope{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	exchange := func(ranks int, seed int64, skipBad bool) ([]core.ExchangeStats, []error) {
		inj := fault.Plan{Seed: seed, Rules: []fault.Rule{fault.FrameCorrupt(-1, -1, -1)}}.New()
		stats, errs := make([]core.ExchangeStats, ranks), make([]error, ranks)
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			g, err := grid.New(world, 4, 4)
			if err != nil {
				return err
			}
			ex, err := (&core.Partitioner{Grid: g, DirectGrid: true, SkipBadFrames: skipBad,
				FrameFault: inj.FrameFault(c.Rank())}).Stream(c)
			if err != nil {
				return err
			}
			var batch []geom.Geometry
			for i := 0; i < 40; i++ {
				batch = append(batch, geom.Point{X: float64((i*37+c.Rank()*11)%100) + 0.5, Y: float64((i*53)%100) + 0.5})
			}
			if err := ex.Add(batch); err != nil {
				return err
			}
			_, stats[c.Rank()], errs[c.Rank()] = ex.Finish()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, errs
	}
	for seed := int64(0); seed < 16; seed++ {
		if _, errs := exchange(1, seed, false); errs[0] == nil {
			t.Errorf("seed %d: a strict exchange decoded a corrupted frame", seed)
		}
		stats, errs := exchange(2, seed, true)
		for r, st := range stats {
			if errs[r] != nil || st.FramesQuarantined == 0 {
				t.Errorf("seed %d rank %d: %d frames quarantined (err %v)", seed, r, st.FramesQuarantined, errs[r])
			}
		}
	}
}
