package grid

import (
	"math"

	"repro/internal/geom"
)

// Partition is the surface every cellular decomposition of a world envelope
// presents to the pipeline: the uniform Grid of §4.2 and the skew-aware
// Adaptive partition both satisfy it, so the partitioner, the streaming
// exchanger, and the spatial workloads are agnostic to which one drives
// them.
type Partition interface {
	// Env returns the world envelope the cells tile.
	Env() geom.Envelope
	// NumCells returns the cell count; ids are 0..NumCells()-1.
	NumCells() int
	// CellEnv returns the envelope of cell id. Cells tile the world with
	// no floating-point slack: border cells extend exactly to the world
	// envelope's edges.
	CellEnv(id int) geom.Envelope
	// CellsFor returns, in ascending id order, every cell a geometry with
	// MBR e replicates into. Empty envelopes map to no cells; envelopes
	// outside the world clamp to the border cells.
	CellsFor(e geom.Envelope) []int
	// AppendCellsFor appends CellsFor(e) to dst and returns the extended
	// slice: a caller recycling dst (dst[:0]) projects without allocating
	// once it has grown to its working size.
	AppendCellsFor(dst []int, e geom.Envelope) []int
	// RefCell returns the cell containing e's reference point (the
	// lower-left corner) — the duplicate-avoidance cell of §4.
	RefCell(e geom.Envelope) int
}

// Mapper is implemented by partitions that carry their own cell-to-rank
// placement (the Adaptive partition's Hilbert bin-packing). Partitions
// without one decluster round-robin.
type Mapper interface {
	// RankFor returns the owning rank of cell in a world of size ranks.
	// It must be a pure function of its arguments and the partition's
	// (rank-uniform) construction inputs.
	RankFor(cell, size int) int
}

// MappingOf returns p's own placement when it carries one, and the default
// round-robin declustering otherwise.
func MappingOf(p Partition) func(cell, size int) int {
	if m, ok := p.(Mapper); ok {
		return m.RankFor
	}
	return RoundRobin
}

// PairRefCell returns the duplicate-avoidance cell of a candidate pair: the
// cell containing the reference point — the lower-left corner of the
// intersection of the two MBRs (§4's rule). The point is taken directly
// from the envelopes rather than from Envelope.Intersection: for pairs that
// only touch at an edge or corner the intersection is degenerate, and a
// barely-disjoint pair normalizes to EmptyEnvelope, whose (+Inf, +Inf)
// corner goes through an overflowing float-to-int conversion whose result
// is implementation-specific — an arbitrary border cell, the wrong one on
// every rank. max(MinX), max(MinY) is the intersection's lower-left
// corner whenever the envelopes overlap at all, degenerate included, and a
// deterministic in-range point otherwise.
func PairRefCell(p Partition, a, b geom.Envelope) int {
	x := math.Max(a.MinX, b.MinX)
	y := math.Max(a.MinY, b.MinY)
	return p.RefCell(geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y})
}

// RefBox is one cell's side of the duplicate-avoidance rule, fixed once so
// that a refine loop tests each candidate pair by comparison instead of
// locating its reference point: Owns(a, b) is PairRefCell(p, a, b) ==
// cell. The reference point (max(MinX), max(MinY)) belongs to the cell iff
// it lies in the cell's half-open [MinX, MaxX) × [MinY, MaxY) — the very
// edges CellAt compares against — where a border cell's outer side is
// open: it absorbs everything beyond the world edge. Which sides are open
// comes from the cell's position (its column and row, its quadtree path),
// never from comparing an edge with the world's: on a grid whose cells are
// narrower than half an ulp of its coordinates, an inner cell's MinX can
// equal the world's.
type RefBox struct {
	minX, minY, maxX, maxY float64
	// An open side has no bound: the cell owns everything beyond it.
	openLeft, openRight, openBelow, openAbove bool
	// p is set for a partition with no box form (and for an id that names
	// no cell); Owns then asks PairRefCell.
	p    Partition
	cell int
}

// RefBoxOf returns cell's RefBox in p. The uniform Grid and the Adaptive
// partition have one in closed form; any other Partition gets a box that
// defers to PairRefCell.
func RefBoxOf(p Partition, cell int) RefBox {
	if cell >= 0 && cell < p.NumCells() {
		switch p := p.(type) {
		case *Grid:
			return p.refBox(cell)
		case *Adaptive:
			return p.boxes[cell]
		}
	}
	return RefBox{p: p, cell: cell}
}

// Owns reports whether the cell is the duplicate-avoidance cell of the pair
// with envelopes a and b — PairRefCell(p, a, b) == cell, with no division
// and no call into the partition. An upper bound is tested as
// !(v >= max) rather than v < max so that a NaN coordinate passes every
// upper bound and fails every lower one, as it does in CellAt's descent:
// it lands where no lower bound applies.
func (b *RefBox) Owns(a, c geom.Envelope) bool {
	if b.p != nil {
		return PairRefCell(b.p, a, c) == b.cell
	}
	x, y := max(a.MinX, c.MinX), max(a.MinY, c.MinY)
	return (b.openLeft || x >= b.minX) && (b.openRight || !(x >= b.maxX)) &&
		(b.openBelow || y >= b.minY) && (b.openAbove || !(y >= b.maxY))
}
