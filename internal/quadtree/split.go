// Package quadtree is the quadtree's space-partitioning use: a world
// envelope split recursively into SW/SE/NW/NE quadrants until a
// caller-supplied load measure says every leaf is light enough. The
// skew-aware grid.Adaptive partition is built on it.
package quadtree

import "repro/internal/geom"

// maxDepth bounds subdivision; 16 levels resolve ~1/65k of the root extent.
const maxDepth = 16

// SplitNode is one node of a weight-driven recursive decomposition built by
// SplitWeighted.
type SplitNode struct {
	Bounds   geom.Envelope
	Depth    int
	Children *[4]*SplitNode // SW, SE, NW, NE; nil for a leaf
}

// SplitWeighted recursively subdivides bounds — splitting each node at its
// center into SW/SE/NW/NE quadrants — while weigh(node bounds) exceeds
// limit. Subdivision always reaches minDepth (even through empty regions,
// so a caller can guarantee a leaf count) and never exceeds maxSplit, which
// is clamped to maxDepth.
// The result is a pure, deterministic function of the arguments: ranks
// passing identical weights build identical trees.
func SplitWeighted(bounds geom.Envelope, weigh func(geom.Envelope) float64, limit float64, minDepth, maxSplit int) *SplitNode {
	if maxSplit > maxDepth {
		maxSplit = maxDepth
	}
	if maxSplit < 0 {
		maxSplit = 0
	}
	if minDepth > maxSplit {
		minDepth = maxSplit
	}
	root := &SplitNode{Bounds: bounds}
	root.split(weigh, limit, minDepth, maxSplit)
	return root
}

func (n *SplitNode) split(weigh func(geom.Envelope) float64, limit float64, minDepth, maxSplit int) {
	if n.Depth >= maxSplit {
		return
	}
	if n.Depth >= minDepth && weigh(n.Bounds) <= limit {
		return
	}
	quads := quadrants(n.Bounds)
	n.Children = &[4]*SplitNode{}
	for i := range quads {
		child := &SplitNode{Bounds: quads[i], Depth: n.Depth + 1}
		n.Children[i] = child
		child.split(weigh, limit, minDepth, maxSplit)
	}
}

// Leaves returns the leaves of the subtree in DFS (SW, SE, NW, NE) order.
func (n *SplitNode) Leaves() []*SplitNode {
	var out []*SplitNode
	n.walkLeaves(&out)
	return out
}

func (n *SplitNode) walkLeaves(out *[]*SplitNode) {
	if n.Children == nil {
		*out = append(*out, n)
		return
	}
	for _, c := range n.Children {
		c.walkLeaves(out)
	}
}

// quadrants returns the four child rectangles of b in SW, SE, NW, NE order:
// center-split, with the outer edges reusing b's exact coordinate values so
// the children tile b with no floating-point slack.
func quadrants(b geom.Envelope) [4]geom.Envelope {
	c := b.Center()
	return [4]geom.Envelope{
		{MinX: b.MinX, MinY: b.MinY, MaxX: c.X, MaxY: c.Y}, // SW
		{MinX: c.X, MinY: b.MinY, MaxX: b.MaxX, MaxY: c.Y}, // SE
		{MinX: b.MinX, MinY: c.Y, MaxX: c.X, MaxY: b.MaxY}, // NW
		{MinX: c.X, MinY: c.Y, MaxX: b.MaxX, MaxY: b.MaxY}, // NE
	}
}
