package simtime

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock = %v", c.Now())
	}
	c.Advance(Parse, 1.5)
	c.Advance(Decode, 0.25)
	if c.Now() != 1.75 {
		t.Errorf("Now = %v, want 1.75", c.Now())
	}
	c.Advance(Parse, 0) // zero is allowed
	if c.Now() != 1.75 {
		t.Errorf("zero advance moved clock to %v", c.Now())
	}
	if want := (Ledger{Parse: 1.5, Decode: 0.25}); c.Ledger() != want {
		t.Errorf("Ledger = %#v, want %#v", c.Ledger(), want)
	}
	if n := testing.AllocsPerRun(100, func() { c.Advance(Decode, 1e-9) }); n != 0 {
		t.Errorf("Advance allocates %v times", n)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(IO, 5)
	c.AdvanceTo(3) // backwards: no-op
	if c.Now() != 5 {
		t.Errorf("AdvanceTo moved backwards: %v", c.Now())
	}
	c.AdvanceTo(8)
	if c.Now() != 8 {
		t.Errorf("AdvanceTo(8) = %v", c.Now())
	}
	if want := (Ledger{IO: 5, Wait: 3}); c.Ledger() != want {
		t.Errorf("Ledger = %#v, want %#v", c.Ledger(), want)
	}
}

func TestClockPanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	var c Clock
	c.Advance(IO, -1)
}

func TestClockPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN Advance should panic")
		}
	}()
	var c Clock
	c.Advance(IO, math.NaN())
}

func TestMax(t *testing.T) {
	if got := Max(1, 5, 3); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := Max(-2); got != -2 {
		t.Errorf("Max single = %v", got)
	}
	if got := Max(); !math.IsInf(got, -1) {
		t.Errorf("Max() = %v, want -Inf", got)
	}
}

// TestLedgerSumsToNow runs random Advance/AdvanceTo sequences: Now must be
// bit for bit the fold a clock without a ledger computes, and the ledger's
// sum must equal it within 1e-12 relative.
func TestLedgerSumsToNow(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for seq := 0; seq < 200; seq++ {
		var c Clock
		var fold float64
		for i := 0; i < 1+rng.Intn(5000); i++ {
			// Durations span the cost model's range, from a per-byte
			// charge (~1e-10 s) to a file read (~1 s).
			d := math.Pow(10, -10+10*rng.Float64())
			if rng.Intn(4) == 0 {
				to := fold + d*(rng.Float64()-0.25)
				c.AdvanceTo(to)
				if to > fold {
					fold = to
				}
				continue
			}
			c.Advance(Kind(rng.Intn(int(numKinds))), d)
			fold += d
		}
		if math.Float64bits(c.Now()) != math.Float64bits(fold) {
			t.Fatalf("sequence %d: Now %v, want the ledger-free fold %v", seq, c.Now(), fold)
		}
		if sum := c.Ledger().Sum(); math.Abs(sum-c.Now()) > 1e-12*c.Now() {
			t.Fatalf("sequence %d: ledger sums to %v, Now is %v", seq, sum, c.Now())
		}
	}
}

func TestLedgerDiffNamesTheKind(t *testing.T) {
	a := Ledger{Decode: 0.1, Wait: 0.2}
	if d := a.Diff(a); d != "" {
		t.Errorf("identical ledgers differ: %s", d)
	}
	b := a
	b[Decode] = math.Nextafter(0.1, 1)
	if d := b.Diff(a); !strings.HasPrefix(d, "Decode ") || strings.Contains(d, "Wait") {
		t.Errorf("Diff = %q, want only Decode named", d)
	}
	if got, want := a.GoString(), "simtime.Ledger{simtime.Decode: 0.1, simtime.Wait: 0.2}"; got != want {
		t.Errorf("GoString = %q, want %q", got, want)
	}
	for k := IO; k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestLedgerSub(t *testing.T) {
	var c Clock
	c.Advance(IO, 2)
	before := c.Ledger()
	c.Advance(IO, 0.5)
	c.Advance(Query, 1)
	if got, want := c.Ledger().Sub(before), (Ledger{IO: 0.5, Query: 1}); got != want {
		t.Errorf("Sub = %#v, want %#v", got, want)
	}
	if got := c.Ledger().Sub(Ledger{}); got != c.Ledger() {
		t.Errorf("Sub of the zero ledger = %#v, want the ledger itself", got)
	}
}
