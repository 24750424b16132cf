package viz

import (
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/topology"
)

// Node colours by kind, plus tree/backbone link styles.
const (
	colSource  = "#d62728"
	colClient  = "#1f77b4"
	colRouter  = "#9e9e9e"
	colGhost   = "#555555"
	colTree    = "#2ca02c"
	colOffTree = "#dddddd"
	colOverlay = "#ff7f0e"
)

// TreeLayout computes deterministic positions for a multicast tree: nodes
// are layered by tree depth (y) and ordered by the preorder position of
// their subtree's leaves (x), the classic tidy-tree arrangement. Off-tree
// nodes are parked on the right margin.
func TreeLayout(t *mtree.Tree, w, h float64) map[graph.NodeID][2]float64 {
	pos := make(map[graph.NodeID][2]float64, t.Net.NumNodes())

	maxDepth := int32(1)
	for _, d := range t.Depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	// Leaf x-slots in preorder.
	var leaves []graph.NodeID
	for _, v := range t.Order {
		if len(t.Children[v]) == 0 {
			leaves = append(leaves, v)
		}
	}
	margin := 30.0
	xs := make(map[graph.NodeID]float64, len(t.Order))
	span := w - 2*margin
	if len(leaves) == 1 {
		xs[leaves[0]] = w / 2
	} else {
		for i, l := range leaves {
			xs[l] = margin + span*float64(i)/float64(len(leaves)-1)
		}
	}
	// Internal nodes: midpoint of their children (post-order).
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if len(t.Children[v]) == 0 {
			continue
		}
		var sum float64
		for _, ch := range t.Children[v] {
			sum += xs[ch]
		}
		xs[v] = sum / float64(len(t.Children[v]))
	}
	for _, v := range t.Order {
		y := margin + (h-2*margin)*float64(t.Depth[v])/float64(maxDepth)
		pos[v] = [2]float64{xs[v], y}
	}
	// Off-tree nodes on the right margin, stacked.
	off := 0
	for v := 0; v < t.Net.NumNodes(); v++ {
		if !t.InTree[graph.NodeID(v)] {
			pos[graph.NodeID(v)] = [2]float64{w - margin/2, margin + float64(off)*12}
			off++
		}
	}
	return pos
}

// Topology renders a multicast tree's network with the tree highlighted.
// When strategies is non-nil, each client's first-choice peer is drawn as
// an orange overlay arc (the "who asks whom first" picture of the paper's RP
// lists). strategies is a dense plan (core.Planner.PlanAllDense); arcs are
// drawn in its order, so the output is byte-stable.
func Topology(t *mtree.Tree, strategies []*core.Strategy, w, h float64) *Canvas {
	net := t.Net
	c := NewCanvas(w, h)
	c.Title(fmt.Sprintf("rmcast topology: %d nodes, %d clients", net.NumNodes(), len(net.Clients)))
	pos := TreeLayout(t, w, h)

	inTree := make(map[graph.EdgeID]bool, len(net.TreeEdges))
	for _, id := range net.TreeEdges {
		inTree[id] = true
	}
	// Off-tree links first (underneath).
	for id, e := range net.G.Edges() {
		if inTree[graph.EdgeID(id)] {
			continue
		}
		a, b := pos[e.A], pos[e.B]
		c.Line(a[0], a[1], b[0], b[1], colOffTree, 0.7)
	}
	for id, e := range net.G.Edges() {
		if !inTree[graph.EdgeID(id)] {
			continue
		}
		a, b := pos[e.A], pos[e.B]
		c.Line(a[0], a[1], b[0], b[1], colTree, 1.6)
	}
	// Strategy overlay: client → first peer.
	if strategies != nil {
		for _, st := range strategies {
			if st == nil || len(st.Peers) == 0 {
				continue
			}
			a, b := pos[st.Client], pos[st.Peers[0].Peer]
			c.Line(a[0], a[1], b[0], b[1], colOverlay, 1.0)
		}
	}
	for v := 0; v < net.NumNodes(); v++ {
		p := pos[graph.NodeID(v)]
		switch net.Kind[v] {
		case topology.Source:
			c.Circle(p[0], p[1], 6, colSource)
		case topology.Client:
			c.Circle(p[0], p[1], 4, colClient)
		case topology.Ghost:
			c.Circle(p[0], p[1], 2, colGhost)
		default:
			c.Circle(p[0], p[1], 2.2, colRouter)
		}
	}
	c.Text(8, 14, 11, "#333", "start",
		fmt.Sprintf("source=red, clients=blue, tree=green%s",
			map[bool]string{true: ", first-choice peer=orange", false: ""}[strategies != nil]))
	return c
}
