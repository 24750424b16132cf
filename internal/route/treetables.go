package route

import (
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
)

// TreeTables is a Router whose metric IS the multicast tree: delays are
// tree-path delays (via DelayFromRoot and LCA) and unicast forwarding
// follows the tree. It exists for the large-n scaling tier: Tables runs one
// Dijkstra per client (O(N·(E+V log V)) at build), which dominates the
// planning time this repo measures at 50k clients, whereas TreeTables needs
// no preprocessing at all. On tree-only topologies — every link a tree link
// — the two routers agree exactly; TreeTables also unconditionally
// satisfies the batch planner's tree-metric precondition, so planning runs
// on the near-linear aggregated path.
//
// TreeTables is stateless after construction and safe for concurrent use.
type TreeTables struct {
	tree *mtree.Tree
}

var _ Router = (*TreeTables)(nil)

// NewTreeTables returns a tree-metric router over t.
func NewTreeTables(t *mtree.Tree) *TreeTables { return &TreeTables{tree: t} }

// Tree returns the multicast tree this router routes over. The batch
// planner uses it for the same identity check as Tables.Network.
func (t *TreeTables) Tree() *mtree.Tree { return t.tree }

// OneWayDelay returns the tree-path delay from a to b (ms). Like Tables
// without a prepared destination, it panics for off-tree nodes.
func (t *TreeTables) OneWayDelay(a, b graph.NodeID) float64 {
	return t.tree.TreeDelay(a, b)
}

// RTT returns twice the one-way delay, per §3.1.
func (t *TreeTables) RTT(a, b graph.NodeID) float64 {
	return 2 * t.tree.TreeDelay(a, b)
}

// RTTVia is RTT(a, b) given the endpoints' already-known meet router (their
// LCA): pure root-delay arithmetic, no LCA query at all. The expression is
// the same float operation sequence as RTT∘TreeDelay, so the result is
// bit-identical when meet really is LCA(a, b) — which the batch planner
// guarantees by construction (every candidate's meet comes off the root
// path). This is what keeps LCA, an O(log depth) lifting query, off the
// batch planner's critical path at every group size.
func (t *TreeTables) RTTVia(a, b, meet graph.NodeID) float64 {
	tr := t.tree
	return 2 * (tr.DelayFromRoot[a] + tr.DelayFromRoot[b] - 2*tr.DelayFromRoot[meet])
}

// NextHop returns the next node and link from cur toward dest along the
// tree path: up toward the root until cur is an ancestor of dest, then down
// the branch containing dest. (None, NoEdge) when cur == dest or either
// node is off-tree.
func (t *TreeTables) NextHop(cur, dest graph.NodeID) (graph.NodeID, graph.EdgeID) {
	tr := t.tree
	if cur == dest || !tr.InTree[cur] || !tr.InTree[dest] {
		return graph.None, graph.NoEdge
	}
	if tr.IsAncestor(cur, dest) {
		c := tr.ChildToward(cur, dest)
		return c, tr.ParentLink[c]
	}
	return tr.Parent[cur], tr.ParentLink[cur]
}

// Path returns the tree path a→b (inclusive), nil if either end is
// off-tree.
func (t *TreeTables) Path(a, b graph.NodeID) []graph.NodeID {
	if !t.tree.InTree[a] || !t.tree.InTree[b] {
		return nil
	}
	return t.tree.TreePath(a, b)
}

// Hops returns the tree-path hop count, -1 if either end is off-tree.
func (t *TreeTables) Hops(a, b graph.NodeID) int {
	if !t.tree.InTree[a] || !t.tree.InTree[b] {
		return -1
	}
	return int(t.tree.TreeHops(a, b))
}

// Prepare is a no-op: the tree metric needs no per-destination state.
func (t *TreeTables) Prepare(graph.NodeID) {}
