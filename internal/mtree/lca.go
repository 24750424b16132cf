package mtree

import (
	"fmt"

	"rmcast/internal/graph"
)

// This file answers the one question Algorithm 1 and both baselines ask of
// the tree: the meet router LCA_T(u, v) and its depth DS (§3.2). It uses
// the binary-lifting table Ancestor already needs — ⌈log2(depth+1)⌉ rows,
// 5 on a 50,000-client tree of depth 19 — with the O(1) tin/tout ancestor
// test, so a query is O(log depth) and the tree carries no other LCA index.
//
// Queries are few enough that a constant-time index does not pay: the
// batch planner's fast path reads each candidate's meet router off the
// root path and never calls LCA (route.TreeTables.RTTVia), so a serial
// Figure 5–8 pass makes about 1.05 million queries and a 50,000-client
// tree run about 0.6 million. An Euler-tour sparse table saved about 27 ns
// a query — some 28 ms a pass — and cost more than half of a 600-router
// tree's build time and about 9 MB on every 50,000-client tree.

// LCA returns the lowest common ancestor of a and b — the paper's "first
// common router" of two clients (§3.2) when both are group members. It
// panics if either node is off-tree.
//
// No depth equalisation is needed: lift a as high as possible while it
// stays off b's ancestor path; its parent is then the LCA.
func (t *Tree) LCA(a, b graph.NodeID) graph.NodeID {
	if !t.InTree[a] || !t.InTree[b] {
		panic(fmt.Sprintf("mtree: LCA of off-tree node (%d,%d)", a, b))
	}
	if t.IsAncestor(a, b) {
		return a
	}
	if t.IsAncestor(b, a) {
		return b
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if u := t.up[k][a]; u != graph.None && !t.IsAncestor(u, b) {
			a = u
		}
	}
	return t.Parent[a]
}
