// Package simtime provides the virtual clocks that give every simulated MPI
// rank a notion of cluster time.
//
// The reproduction runs real code (real parsing, real communication of real
// bytes, real index builds) but reports time from a deterministic cost model
// rather than from the host machine's wall clock: communication and I/O
// operations advance the participating ranks' clocks by modeled durations,
// and CPU phases advance them by calibrated per-unit costs multiplied by the
// work that was actually performed. See DESIGN.md §5 for the calibration.
//
// Every advance names its Kind, the pipeline layer it models, and the clock
// keeps a Ledger of the seconds booked to each kind beside the time itself.
package simtime

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind is the pipeline layer a clock advance models. Each kind is charged
// from the sites listed beside it and from nowhere else.
type Kind uint8

const (
	// IO is a file read or write: mpiio's independent and synchronized
	// read times, its transient-fault retry backoff, and a collective
	// aggregator's read or write of its file slice.
	IO Kind = iota
	// Aggregate is two-phase collective I/O's aggregator bookkeeping: the
	// per-cycle rescan of every rank's offset list and the cost of the
	// pieces found in its slice (Figure 15).
	Aggregate
	// Parse is turning a record's bytes into a geometry, on the read path
	// and in the partitioning sample.
	Parse
	// Project is the exchange's mapping of geometries to grid cells.
	Project
	// Encode is the exchange's frame serialization.
	Encode
	// Decode is frame deserialization on the receiving rank, and the
	// struct and contiguous decodes of the binary-layout experiment.
	Decode
	// Index is inserting geometries into the per-cell R-trees.
	Index
	// Query is the filter and refine work of a join or range query, batch
	// or replayed from a recording service.
	Query
	// Transport is the communication runtime's own CPU time: a message's
	// injection overhead and a reduction operator's per-byte combine.
	Transport
	// Wait is time a rank spends idle at a rendezvous until the message or
	// the transfer it waits for is complete.
	Wait

	numKinds
)

var kindNames = [numKinds]string{
	IO: "IO", Aggregate: "Aggregate", Parse: "Parse", Project: "Project", Encode: "Encode",
	Decode: "Decode", Index: "Index", Query: "Query", Transport: "Transport", Wait: "Wait",
}

// String returns the kind's name.
func (k Kind) String() string { return kindNames[k] }

// Ledger is the seconds a clock has booked to each Kind, indexed by kind.
type Ledger [numKinds]float64

// Sum returns the total booked. It equals the clock's Now to rounding: Now
// adds the same durations in charge order, Sum kind by kind.
func (l Ledger) Sum() float64 {
	var s float64
	for _, d := range l {
		s += d
	}
	return s
}

// Sub returns the seconds booked to each kind since before, an earlier
// reading of the same clock's ledger: the ledger delta of a call.
func (l Ledger) Sub(before Ledger) Ledger {
	for k := range l {
		l[k] -= before[k]
	}
	return l
}

// Diff names every kind whose total differs from want's, bit for bit, with
// both values; it returns "" when the ledgers are identical.
func (l Ledger) Diff(want Ledger) string {
	var b strings.Builder
	for k := range l {
		if math.Float64bits(l[k]) != math.Float64bits(want[k]) {
			if b.Len() > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%v %s, want %s", Kind(k), fmtSeconds(l[k]), fmtSeconds(want[k]))
		}
	}
	return b.String()
}

// GoString renders the ledger as a Go literal of its non-zero kinds, exact
// to the bit, so a golden table can be regenerated from a failure message.
func (l Ledger) GoString() string {
	var b strings.Builder
	b.WriteString("simtime.Ledger{")
	sep := ""
	for k, d := range l {
		if d != 0 {
			fmt.Fprintf(&b, "%ssimtime.%v: %s", sep, Kind(k), fmtSeconds(d))
			sep = ", "
		}
	}
	b.WriteString("}")
	return b.String()
}

// fmtSeconds formats d in the shortest form that parses back to d exactly.
func fmtSeconds(d float64) string { return strconv.FormatFloat(d, 'g', -1, 64) }

// Clock is a per-rank virtual clock measured in seconds since the start of
// the simulated program. A Clock is owned by exactly one rank goroutine;
// cross-rank clock joins happen inside rendezvous operations which exchange
// timestamps explicitly, so Clock itself needs no locking.
type Clock struct {
	now   float64
	spent Ledger
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Ledger returns a copy of the seconds booked to each kind so far.
func (c *Clock) Ledger() Ledger { return c.spent }

// Advance moves the clock forward by d seconds, booked to k. Negative or
// NaN durations panic: they always indicate a bug in a cost model.
func (c *Clock) Advance(k Kind, d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("simtime: invalid duration %v", d))
	}
	c.now += d
	c.spent[k] += d
}

// AdvanceTo moves the clock forward to time t, booking the gap to Wait.
// Moving backwards is a no-op: a rank that was "early" to a rendezvous
// simply waits until t, while a rank that was "late" keeps its own later
// time.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.spent[Wait] += t - c.now
		c.now = t
	}
}

// Max returns the maximum of a set of timestamps. It is the join operation
// used by barriers and collective completions.
func Max(ts ...float64) float64 {
	m := math.Inf(-1)
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
