// Package costmodel holds the calibrated CPU cost constants that convert
// actually-executed work (bytes parsed, geometries indexed, candidate pairs
// refined) into virtual seconds. The parse constants are anchored to the
// paper's own sequential measurements in Table 3:
//
//	All Objects   92 GB polygons in 4728 s  ->  ~51 ns/byte
//	Road Network 137 GB lines    in 2873 s  ->  ~21 ns/byte
//	All Nodes     96 GB points   in 3782 s  ->  ~39 ns/byte
//
// (the paper's column includes sequential I/O, which internal/pfs charges
// separately; the constants below are net of that I/O share).
//
// Because the reproduction parses scaled-down files, callers multiply by
// the dataset scale factor so reported times stay in full-size terms.
package costmodel

import (
	"math"

	"repro/internal/geom"
)

// Parse cost per byte of WKT text by shape class (seconds/byte).
const (
	PolygonParsePerByte = 46e-9
	LineParsePerByte    = 19e-9
	PointParsePerByte   = 36e-9
)

// ParseCost returns the modeled CPU seconds to parse one WKT record of
// nBytes producing a geometry of type t.
func ParseCost(t geom.Type, nBytes int) float64 {
	perByte := PolygonParsePerByte
	switch t {
	case geom.TypePoint, geom.TypeMultiPoint:
		perByte = PointParsePerByte
	case geom.TypeLineString, geom.TypeMultiLineString:
		perByte = LineParsePerByte
	}
	return perByte * float64(nBytes)
}

// Index build/query constants.
const (
	// indexInsertBase scales the c*log2(n) cost of one R-tree insert.
	indexInsertBase = 120e-9
	// FilterTest is one MBR-vs-MBR overlap test during the filter phase.
	FilterTest = 25e-9
)

// IndexInsert returns the modeled cost of inserting into an R-tree that
// currently holds n entries.
func IndexInsert(n int) float64 {
	return indexInsertBase * math.Log2(float64(n)+2)
}

// IndexQuery returns the modeled cost of one R-tree lookup returning k
// candidates from an index of n entries.
func IndexQuery(n, k int) float64 {
	return indexInsertBase*math.Log2(float64(n)+2) + FilterTest*float64(k)
}

// VirtualCount converts a real element count to its full-scale equivalent.
// The product rounds half away from zero rather than truncating: truncation
// silently drops the fractional full-scale share of every count, and at
// scales below 1 it floors small counts to 0, erasing a small cell's
// IndexQuery and RefineCost charges from the virtual clock entirely. Any
// nonzero real count stands for at least one full-scale element.
func VirtualCount(n int, scale float64) int {
	if n <= 0 {
		return 0
	}
	v := int(math.Round(float64(n) * scale))
	if v < 1 {
		return 1
	}
	return v
}

// Refinement constants: an exact intersection test on filter survivors
// costs a fixed overhead plus a per-vertex-pair term. The base reflects a
// GEOS Intersects call (geometry preparation, edge-graph setup, allocation
// churn — microseconds, not nanoseconds); the pair term is why the paper's
// >100K-vertex polygons make refine dominate joins.
const (
	refineBase          = 4e-6
	refinePerVertexPair = 1.1e-9
)

// RefineCost returns the modeled cost of one exact intersection test
// between geometries with na and nb vertices. The charge models GEOS, not
// this repository's geom package: it is the same whichever of geom's
// kernels answered and however early that kernel stopped.
func RefineCost(na, nb int) float64 {
	return refineBase + refinePerVertexPair*float64(na)*float64(nb)
}

// Serialization constants for the communication buffer management of
// §4.2.3 (geometry -> byte buffer and back). The per-geometry terms model
// object (de)construction in the geometry engine — allocating and wiring a
// GEOS-style object graph costs microseconds per geometry, which is why
// the paper's communication phase is dominated by buffer management for
// geometry-rich datasets.
// The per-geometry constants reflect GEOS 3.4 (the paper's version): a
// WKB write walks the coordinate sequence, a WKB read rebuilds the full
// object graph with per-node allocation. Polygons carry rings and
// envelopes and cost the most; lines and points have much smaller graphs.
const (
	SerializePerByte   = 0.35e-9
	DeserializePerByte = 0.45e-9

	SerializePolygon = 4e-6
	SerializeLine    = 1.5e-6
	SerializePoint   = 0.5e-6

	DeserializePolygon = 10e-6
	DeserializeLine    = 3e-6
	DeserializePoint   = 1e-6
)

// SerializeGeomCost returns the per-object serialization cost for a
// geometry of type t (the byte-proportional part is charged separately).
func SerializeGeomCost(t geom.Type) float64 {
	switch t {
	case geom.TypePoint, geom.TypeMultiPoint:
		return SerializePoint
	case geom.TypeLineString, geom.TypeMultiLineString:
		return SerializeLine
	default:
		return SerializePolygon
	}
}

// DeserializeGeomCost returns the per-object cost of rebuilding a geometry
// of type t from its wire form.
func DeserializeGeomCost(t geom.Type) float64 {
	switch t {
	case geom.TypePoint, geom.TypeMultiPoint:
		return DeserializePoint
	case geom.TypeLineString, geom.TypeMultiLineString:
		return DeserializeLine
	default:
		return DeserializePolygon
	}
}

// Datatype decode costs for binary fixed records (Figure 12): an
// MPI_Type_struct read decodes in one internal pass; the
// MPI_Type_contiguous path reads into a temporary buffer and runs a
// user-space conversion loop that assembles each struct field by field.
const (
	StructDecodePerByte     = 0.20e-9
	ContiguousDecodePerByte = 0.50e-9
	ContiguousDecodePerElem = 60e-9
)

// GridProjectPerCell is the cost of mapping one geometry to one overlapping
// grid cell (R-tree query against cell boundaries plus list append).
const GridProjectPerCell = 90e-9

// partitionLoadIndexSize is the nominal per-cell index population the
// adaptive partitioner assumes when pricing the index-insert share of a
// cell's load (the log factor varies too slowly to matter for balancing).
const partitionLoadIndexSize = 1024

// PartitionLoadCost returns the modeled load one geometry of type t and
// wire size nBytes adds to whichever partition cell it lands in: the
// exchange serialization and deserialization it costs to move there plus
// the index insert it costs once it arrives. This is the quantity the
// skew-aware partitioner samples, histograms, and balances across ranks.
func PartitionLoadCost(t geom.Type, nBytes int) float64 {
	return SerializeGeomCost(t) + DeserializeGeomCost(t) +
		(SerializePerByte+DeserializePerByte)*float64(nBytes) +
		IndexInsert(partitionLoadIndexSize)
}
