// Package core is MPI-Vector-IO itself — the paper's primary contribution:
// a parallel I/O and partitioning library that makes MPI aware of spatial
// data. It provides
//
//   - parallel reading and file partitioning of irregular text-based vector
//     data (WKT and friends) with two boundary-handling strategies: the
//     message-based dynamic partitioning of Algorithm 1 and the redundant
//     overlap (halo) reads it is compared against (§4.1, Figure 10);
//   - a flexible parser interface that presents file partitions as
//     collections of strings and lets the user map each record to a
//     geometry (§4.3), with a WKT implementation included;
//   - spatial derived datatypes (MPI_POINT, MPI_LINE, MPI_RECT) and spatial
//     reduction operators (MPI_MIN, MPI_MAX, MPI_UNION) usable in Reduce
//     and Scan (§4.2, Table 2, Figures 6 and 13);
//   - grid-based global spatial partitioning with the two-round all-to-all
//     exchange and sliding-window buffering of §4.2.3.
package core

import (
	"bytes"
	"fmt"

	"repro/internal/geom"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

// Parser converts one record of a vector file (one WKT line, one CSV row,
// ...) into a geometry. Implementations may return (nil, nil) to skip
// non-geometry records (headers, comments). The record slice is only valid
// for the duration of the call — the reader recycles its I/O buffers — so
// an implementation that retains record bytes must copy them.
type Parser interface {
	Parse(record []byte) (geom.Geometry, error)
}

// WKTParser parses newline-delimited WKT records, the primary format of the
// paper's datasets (§2). Everything after the geometry text on a line is
// treated as the feature's attribute payload and ignored here, matching the
// paper's GEOS userdata handling.
//
// The zero value works and is safe for concurrent use (it draws pooled
// scanners from the wkt package). NewWKTParser returns a value with a
// dedicated coordinate arena, which is what the per-rank ingest hot path
// wants: no pool synchronization, one slab allocation amortized over ~1k
// vertices. A dedicated parser must stay on one goroutine; the geometries
// it returns remain valid after the parser is discarded.
type WKTParser struct {
	scanner *wkt.Parser
}

// NewWKTParser returns a WKTParser with its own reusable coordinate arena
// (single-goroutine; see the type comment for the ownership contract).
func NewWKTParser() WKTParser {
	return WKTParser{scanner: wkt.NewParser()}
}

// Parse implements Parser.
func (w WKTParser) Parse(record []byte) (geom.Geometry, error) {
	record = trimSpace(record)
	if len(record) == 0 {
		return nil, nil
	}
	// Attributes may follow the geometry, separated by a tab.
	if i := bytes.IndexByte(record, '\t'); i >= 0 {
		record = record[:i]
	}
	if w.scanner != nil {
		return w.scanner.Parse(record)
	}
	return wkt.Parse(record)
}

// WKBParser parses WKB record payloads — the binary sibling of WKTParser,
// for files written as length-prefixed WKB records (the LengthPrefixed
// framing; wkb.AppendFramed is the writer). The framing strips the length
// header, so the payload handed here is exactly one WKB geometry, decoded
// with no float scanning at all — which is why the binary path approaches
// raw I/O bandwidth (paper Figures 12/15).
//
// The zero value works and is safe for concurrent use (it draws pooled
// decoders from the wkb package). NewWKBParser returns a value with a
// dedicated coordinate arena for per-rank ingest loops; it must stay on one
// goroutine, and the geometries it returns remain valid after the parser is
// discarded — the same ownership contract as WKTParser.
type WKBParser struct {
	dec *wkb.Parser
}

// NewWKBParser returns a WKBParser with its own reusable coordinate arena
// (single-goroutine; see the type comment for the ownership contract).
func NewWKBParser() WKBParser {
	return WKBParser{dec: wkb.NewParser()}
}

// Parse implements Parser. An empty record is malformed — the WKB encoders
// never write one — and fails like any other truncation rather than being
// skipped.
func (w WKBParser) Parse(record []byte) (geom.Geometry, error) {
	var (
		g   geom.Geometry
		n   int
		err error
	)
	if w.dec != nil {
		g, n, err = w.dec.Decode(record)
	} else {
		g, n, err = wkb.Decode(record)
	}
	if err != nil {
		return nil, err
	}
	if n != len(record) {
		return nil, trailingGarbage(len(record) - n)
	}
	return g, nil
}

// scanWKB is WKBParser.Parse without the geometry — the raw exchange path's
// record check (see ReadExchange). It accepts, rejects and words errors
// exactly as Parse does, and returns the type and envelope Parse's geometry
// would report.
func scanWKB(record []byte) (geom.Type, geom.Envelope, error) {
	t, env, n, err := wkb.Scan(record)
	if err == nil && n != len(record) {
		err = trailingGarbage(len(record) - n)
	}
	return t, env, err
}

func trailingGarbage(n int) error {
	return fmt.Errorf("wkb: record has %d bytes of trailing garbage after geometry", n)
}

func trimSpace(b []byte) []byte {
	lo, hi := 0, len(b)
	for lo < hi && (b[lo] == ' ' || b[lo] == '\t' || b[lo] == '\r' || b[lo] == '\n') {
		lo++
	}
	for hi > lo && (b[hi-1] == ' ' || b[hi-1] == '\t' || b[hi-1] == '\r' || b[hi-1] == '\n') {
		hi--
	}
	return b[lo:hi]
}

// AccessLevel selects the MPI-IO function class used for contiguous reads
// (paper Table 1).
type AccessLevel int

const (
	// Level0 uses independent reads (MPI_File_read_at).
	Level0 AccessLevel = iota
	// Level1 uses collective reads (MPI_File_read_at_all).
	Level1
)

// String returns the Table 1 name of the level.
func (l AccessLevel) String() string {
	switch l {
	case Level0:
		return "Level 0 (contiguous, independent)"
	case Level1:
		return "Level 1 (contiguous, collective)"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Strategy selects how variable-length text records split across block
// boundaries are repaired (§4.1). Length-prefixed binary records ignore
// it: they are always repaired by the message-based chain.
type Strategy int

const (
	// MessageBased is Algorithm 1: aligned non-overlapping block reads plus
	// a ring exchange of the trailing incomplete fragment.
	MessageBased Strategy = iota
	// Overlap reads a halo of MaxGeomSize extra bytes per block so every
	// boundary-spanning text record is fully visible to one reader —
	// redundant I/O traded against messaging. Binary framings ignore it.
	Overlap
)

// String names the strategy as the paper does in Figure 10.
func (s Strategy) String() string {
	if s == Overlap {
		return "overlap"
	}
	return "message"
}
