package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/quadtree"
	"repro/internal/sfc"
)

// Histogram is a square power-of-two weight field over a world envelope:
// the "analyze" artifact of the sample → analyze → tune partitioning pass
// (SATO-style, [Aji et al.]). During the sampling read each rank bins the
// expected partition load of its sampled records by envelope center; the
// fields are then element-wise summed across ranks (Allreduce) so every
// rank analyzes the identical global sample.
type Histogram struct {
	env          geom.Envelope
	side         int
	cellW, cellH float64
	w            []float64 // row-major, len side*side
}

// NewHistogram builds an empty side x side weight field over env. side must
// be a power of two so histogram bins align exactly with the quadtree
// splits BuildAdaptive derives from them. Its error is pure argument
// validation: ranks passing the same envelope and side fail or succeed
// identically.
func NewHistogram(env geom.Envelope, side int) (*Histogram, error) {
	if env.IsEmpty() {
		return nil, fmt.Errorf("grid: empty histogram envelope")
	}
	if side <= 0 || side&(side-1) != 0 {
		return nil, fmt.Errorf("grid: histogram side %d is not a positive power of two", side)
	}
	if env.Width() == 0 || env.Height() == 0 {
		// Degenerate world (single point or line): inflate as New does.
		env = env.ExpandBy(0.5)
	}
	return &Histogram{
		env:   env,
		side:  side,
		cellW: env.Width() / float64(side),
		cellH: env.Height() / float64(side),
		w:     make([]float64, side*side),
	}, nil
}

// Env returns the world envelope the bins tile.
func (h *Histogram) Env() geom.Envelope { return h.env }

// Side returns the bin count per axis.
func (h *Histogram) Side() int { return h.side }

// Add accumulates weight w into the bin holding e's center, clamping
// centers outside the world to the border bins.
func (h *Histogram) Add(e geom.Envelope, w float64) {
	if e.IsEmpty() {
		return
	}
	c := e.Center()
	col := h.clampBin(int((c.X - h.env.MinX) / h.cellW))
	row := h.clampBin(int((c.Y - h.env.MinY) / h.cellH))
	h.w[row*h.side+col] += w
}

func (h *Histogram) clampBin(i int) int {
	if i < 0 {
		return 0
	}
	if i >= h.side {
		return h.side - 1
	}
	return i
}

// Weights exposes the raw row-major weight field — the buffer ranks
// element-wise sum with Allreduce so the global sample is rank-identical
// before BuildAdaptive runs. Callers may overwrite it in place with the
// reduced values.
func (h *Histogram) Weights() []float64 { return h.w }

// binSums is an exclusive 2D prefix-sum table over a histogram's bins,
// giving O(1) exact total weight for any bin-aligned rectangle.
type binSums struct {
	h *Histogram
	p []float64 // (side+1)*(side+1); p[r][c] = sum of bins below row r and col c
}

func newBinSums(h *Histogram) *binSums {
	side := h.side
	n := side + 1
	p := make([]float64, n*n)
	for r := 0; r < side; r++ {
		rowSum := 0.0
		for c := 0; c < side; c++ {
			rowSum += h.w[r*side+c]
			p[(r+1)*n+c+1] = p[r*n+c+1] + rowSum
		}
	}
	return &binSums{h: h, p: p}
}

// weightIn returns the total weight inside the bin-aligned rectangle e.
// Edge coordinates come from dyadic center splits of the world envelope, so
// rounding recovers the exact bin index despite floating-point midpoints.
func (s *binSums) weightIn(e geom.Envelope) float64 {
	h := s.h
	c0 := s.clampEdge((e.MinX - h.env.MinX) / h.cellW)
	c1 := s.clampEdge((e.MaxX - h.env.MinX) / h.cellW)
	r0 := s.clampEdge((e.MinY - h.env.MinY) / h.cellH)
	r1 := s.clampEdge((e.MaxY - h.env.MinY) / h.cellH)
	n := h.side + 1
	return s.p[r1*n+c1] - s.p[r0*n+c1] - s.p[r1*n+c0] + s.p[r0*n+c0]
}

func (s *binSums) clampEdge(v float64) int {
	i := int(math.Round(v))
	if i < 0 {
		return 0
	}
	if i > s.h.side {
		return s.h.side
	}
	return i
}

// AdaptiveOptions tunes BuildAdaptive.
type AdaptiveOptions struct {
	// Ranks is the world size the cell-to-rank placement is packed for.
	Ranks int
	// TargetCellsPerRank sets the split threshold: a quadrant keeps
	// splitting while its sampled weight exceeds
	// total/(Ranks*TargetCellsPerRank), so the curve packing has roughly
	// this many cells per rank to balance with. Zero means 8.
	TargetCellsPerRank int
	// MinLeafLoad floors the split threshold: a quadrant lighter than this
	// is never split further, however hot its parent. Callers derive it
	// from the cost model (the exchange+index cost below which splitting
	// cannot pay for itself).
	MinLeafLoad float64
	// MaxDepth bounds subdivision. Zero means the histogram's own depth
	// (log2 of its side); values beyond it are clamped so every leaf stays
	// aligned with whole histogram bins.
	MaxDepth int
}

// Adaptive is the skew-aware partition: a quadtree decomposition of the
// world whose leaves are the cells, ordered along the Hilbert curve and
// greedily bin-packed into a cell-to-rank placement so neighboring cells
// land on the same rank and every rank carries a near-equal share of the
// sampled load. It satisfies Partition (the uniform Grid's surface) and
// Mapper (its own placement replaces round-robin).
type Adaptive struct {
	env    geom.Envelope
	root   *anode
	cells  []geom.Envelope // by cell id: ascending Hilbert order
	rankOf []int           // cell id -> owning rank, packed for ranks
	boxes  []RefBox        // by cell id: the leaf's bounds as cellAt tests them
	ranks  int
}

// anode mirrors the split tree with leaf ids for point/overlap descent.
type anode struct {
	env  geom.Envelope
	kids *[4]*anode // SW, SE, NW, NE; nil for a leaf
	id   int        // leaf cell id; -1 for interior nodes
}

// BuildAdaptive analyzes a (rank-identical, Allreduced) sample histogram
// and returns the tuned partition: hot quadrants split until each leaf's
// expected load clears the thresholds, leaves Hilbert-ordered, load
// bin-packed contiguously along the curve. It is a pure function of the
// histogram and options: ranks passing identical reduced weights build
// identical partitions or fail identically.
func BuildAdaptive(h *Histogram, opt AdaptiveOptions) (*Adaptive, error) {
	if h == nil {
		return nil, fmt.Errorf("grid: adaptive partition needs a histogram")
	}
	if opt.Ranks <= 0 {
		return nil, fmt.Errorf("grid: adaptive partition needs a positive rank count, got %d", opt.Ranks)
	}
	target := opt.TargetCellsPerRank
	if target <= 0 {
		target = 8
	}
	depthCap := 0
	for 1<<depthCap < h.side {
		depthCap++
	}
	maxDepth := opt.MaxDepth
	if maxDepth <= 0 || maxDepth > depthCap {
		maxDepth = depthCap
	}
	// Split at least far enough that every rank can own a cell.
	minDepth := 0
	for 1<<(2*minDepth) < opt.Ranks {
		minDepth++
	}
	if minDepth > maxDepth {
		minDepth = maxDepth
	}

	sums := newBinSums(h)
	total := sums.weightIn(h.env)
	limit := total / float64(opt.Ranks*target)
	if limit < opt.MinLeafLoad {
		limit = opt.MinLeafLoad
	}

	root := quadtree.SplitWeighted(h.env, sums.weightIn, limit, minDepth, maxDepth)
	leaves := root.Leaves()

	// Cell ids follow the Hilbert curve: stable sort on the curve index of
	// each leaf center keeps DFS order as the deterministic tiebreak for
	// leaves quantized to the same curve cell.
	keys := make([]uint64, len(leaves))
	ord := make([]int, len(leaves))
	for i, l := range leaves {
		keys[i] = sfc.Hilbert(l.Bounds, h.env)
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })

	a := &Adaptive{env: h.env, ranks: opt.Ranks}
	a.cells = make([]geom.Envelope, len(leaves))
	idOf := make(map[*quadtree.SplitNode]int, len(leaves))
	w := make([]float64, len(leaves))
	for id, di := range ord {
		a.cells[id] = leaves[di].Bounds
		idOf[leaves[di]] = id
		w[id] = sums.weightIn(leaves[di].Bounds)
	}
	a.root = buildANode(root, idOf)
	a.boxes = make([]RefBox, len(leaves))
	inf := math.Inf(1)
	a.setRefBoxes(a.root, RefBox{minX: -inf, minY: -inf, maxX: inf, maxY: inf,
		openLeft: true, openRight: true, openBelow: true, openAbove: true})
	a.rankOf = packAlongCurve(w, opt.Ranks, total)
	return a, nil
}

// setRefBoxes records the RefBox of every leaf under n, b being n's: the
// conjunction of the comparisons cellAt's descent makes on its way to the
// leaf. Each split it takes bounds one side — x >= the split line for an
// east child, x below it for a west one — and closes that side, so a leaf
// on the world's border keeps that side open by its path, not by where its
// edge lies.
func (a *Adaptive) setRefBoxes(n *anode, b RefBox) {
	if n.kids == nil {
		a.boxes[n.id] = b
		return
	}
	sx, sy := n.kids[0].env.MaxX, n.kids[0].env.MaxY
	for q, k := range n.kids {
		kb := b
		if q&1 != 0 {
			kb.minX, kb.openLeft = max(kb.minX, sx), false
		} else {
			kb.maxX, kb.openRight = min(kb.maxX, sx), false
		}
		if q&2 != 0 {
			kb.minY, kb.openBelow = max(kb.minY, sy), false
		} else {
			kb.maxY, kb.openAbove = min(kb.maxY, sy), false
		}
		a.setRefBoxes(k, kb)
	}
}

func buildANode(n *quadtree.SplitNode, idOf map[*quadtree.SplitNode]int) *anode {
	if n.Children == nil {
		return &anode{env: n.Bounds, id: idOf[n]}
	}
	a := &anode{env: n.Bounds, id: -1, kids: &[4]*anode{}}
	for i, c := range n.Children {
		a.kids[i] = buildANode(c, idOf)
	}
	return a
}

// packAlongCurve assigns contiguous runs of curve-ordered cells to ranks:
// each rank keeps taking cells until its cumulative share reaches the next
// fair-share boundary, switching early when the remaining ranks need the
// remaining cells one each. A zero-weight sample degrades to even
// contiguous runs.
func packAlongCurve(w []float64, size int, total float64) []int {
	rankOf := make([]int, len(w))
	if total <= 0 {
		for i := range rankOf {
			rankOf[i] = i * size / len(w)
		}
		return rankOf
	}
	rank := 0
	packed := 0.0
	assigned := false // current rank owns at least one cell
	for i := range w {
		if rank < size-1 && assigned {
			cellsLeft := len(w) - i
			ranksLeft := size - 1 - rank
			boundary := total * float64(rank+1) / float64(size)
			if packed >= boundary || cellsLeft <= ranksLeft {
				rank++
				assigned = false
			}
		}
		rankOf[i] = rank
		packed += w[i]
		assigned = true
	}
	return rankOf
}

// Env returns the world envelope.
func (a *Adaptive) Env() geom.Envelope { return a.env }

// NumCells returns the leaf count.
func (a *Adaptive) NumCells() int { return len(a.cells) }

// Ranks returns the world size the placement was packed for.
func (a *Adaptive) Ranks() int { return a.ranks }

// CellEnv returns the envelope of cell id.
func (a *Adaptive) CellEnv(id int) geom.Envelope { return a.cells[id] }

// RankFor implements Mapper: the Hilbert bin-packed placement when size
// matches the packed world size, round-robin declustering otherwise
// (deterministic either way).
func (a *Adaptive) RankFor(cell, size int) int {
	if size == a.ranks && cell >= 0 && cell < len(a.rankOf) {
		return a.rankOf[cell]
	}
	return RoundRobin(cell, size)
}

// RefCell returns the leaf containing e's reference point (the lower-left
// corner), with the uniform grid's clamp semantics: points on a split line
// belong to the higher cell, points outside the world to the border cells.
func (a *Adaptive) RefCell(e geom.Envelope) int {
	return a.cellAt(e.MinX, e.MinY)
}

func (a *Adaptive) cellAt(x, y float64) int {
	n := a.root
	for n.kids != nil {
		// The SW child's Max edges are the exact split lines.
		q := 0
		if x >= n.kids[0].env.MaxX {
			q |= 1
		}
		if y >= n.kids[0].env.MaxY {
			q |= 2
		}
		n = n.kids[q]
	}
	return n.id
}

// CellsFor returns, ascending, every leaf whose area overlaps e under the
// uniform grid's half-open clamped overlap rule.
func (a *Adaptive) CellsFor(e geom.Envelope) []int { return a.AppendCellsFor(nil, e) }

// AppendCellsFor appends CellsFor(e) to dst and returns the extended slice.
func (a *Adaptive) AppendCellsFor(dst []int, e geom.Envelope) []int {
	if e.IsEmpty() {
		return dst
	}
	start := len(dst)
	a.collect(a.root, e, &dst)
	sort.Ints(dst[start:])
	return dst
}

func (a *Adaptive) collect(n *anode, e geom.Envelope, out *[]int) {
	if n.kids == nil {
		*out = append(*out, n.id)
		return
	}
	for _, k := range n.kids {
		if a.overlaps(k.env, e) {
			a.collect(k, e, out)
		}
	}
}

// overlaps replicates the uniform grid's replication-set rule: a cell owns
// the half-open [MinX, MaxX) x [MinY, MaxY) rectangle, and border cells
// absorb everything beyond the world edge (the clamp in clampCol/clampRow).
func (a *Adaptive) overlaps(cell, e geom.Envelope) bool {
	if e.MaxX < cell.MinX && cell.MinX != a.env.MinX {
		return false
	}
	if e.MinX >= cell.MaxX && cell.MaxX != a.env.MaxX {
		return false
	}
	if e.MaxY < cell.MinY && cell.MinY != a.env.MinY {
		return false
	}
	if e.MinY >= cell.MaxY && cell.MaxY != a.env.MaxY {
		return false
	}
	return true
}
