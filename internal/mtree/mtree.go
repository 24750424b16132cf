// Package mtree provides the rooted multicast tree abstraction of the paper
// (§2): the spanning subtree T of the network over which data packets are
// multicast, rooted at the source, with clients at the leaves.
//
// Everything the RP algorithm consumes lives here: depths (the paper's DS
// values are depths of "first common routers"), lowest-common-ancestor
// queries (the "first common router" R_j of a client u and a peer v_j is
// exactly LCA_T(u, v_j)), tree path delays (the recovery latency along the
// tree), and subtree enumeration (RMA's partial-multicast repairs flood the
// subtree under the meet router).
//
// Every tree is built one way, at every size: a preorder DFS that stamps
// tin/tout intervals for O(1) ancestor tests, plus a binary-lifting table
// of ⌈log2(depth+1)⌉ rows that answers Ancestor and LCA in O(log depth)
// (see lca.go).
package mtree

import (
	"fmt"
	"math/bits"

	"rmcast/internal/graph"
	"rmcast/internal/topology"
)

// Tree is the multicast tree of a Network, rooted at the source.
type Tree struct {
	// Net is the underlying network.
	Net *topology.Network
	// Root is the multicast source.
	Root graph.NodeID
	// InTree reports membership; nodes outside the tree (off-tree routers
	// in hand-built networks) have Parent None and Depth -1.
	InTree []bool
	// Parent is the tree parent (toward the root); None for the root.
	Parent []graph.NodeID
	// ParentLink is the link to the parent; NoEdge for the root.
	ParentLink []graph.EdgeID
	// Children lists each node's children; ChildLink is parallel to it.
	Children  [][]graph.NodeID
	ChildLink [][]graph.EdgeID
	// Depth is the hop count from the root along the tree (the paper's DS
	// of a node); -1 off tree. Depth[Root] == 0.
	Depth []int32
	// DelayFromRoot is the summed link delay from the root along the tree.
	DelayFromRoot []float64
	// Order is a preorder listing of tree nodes (root first).
	Order []graph.NodeID
	// Clients are the group members (from the network), all of which are
	// guaranteed to be in the tree.
	Clients []graph.NodeID

	// tin/tout are preorder entry/exit stamps for O(1) ancestor tests.
	tin, tout []int32
	// up is the binary-lifting ancestor table: up[k][v] is the 2^k-th
	// ancestor of v (None past the root).
	up [][]graph.NodeID
}

// Build constructs the rooted tree from net.TreeEdges. It fails if the tree
// edges do not form a forest containing the source and every client in one
// component (Network.Validate enforces the same invariant).
func Build(net *topology.Network) (*Tree, error) {
	n := net.NumNodes()
	t := &Tree{
		Net:           net,
		Root:          net.Source,
		InTree:        make([]bool, n),
		Parent:        make([]graph.NodeID, n),
		ParentLink:    make([]graph.EdgeID, n),
		Children:      make([][]graph.NodeID, n),
		ChildLink:     make([][]graph.EdgeID, n),
		Depth:         make([]int32, n),
		DelayFromRoot: make([]float64, n),
		Clients:       net.Clients,
		tin:           make([]int32, n),
		tout:          make([]int32, n),
	}
	for i := range t.Parent {
		t.Parent[i] = graph.None
		t.ParentLink[i] = graph.NoEdge
		t.Depth[i] = -1
	}

	// The DFS walks the tree adjacency. The tree does not keep it: its
	// offsets end as buildChildren's scratch.
	adj := NewAdjacency(net)
	off, adjBuf := adj.off, adj.buf

	// Iterative preorder DFS from the root. DFS (not BFS) so tin/tout
	// stamps give contiguous subtree intervals.
	t.Depth[t.Root] = 0
	t.InTree[t.Root] = true
	type frame struct {
		node graph.NodeID
		next int32
	}
	t.Order = make([]graph.NodeID, 0, n)
	stack := make([]frame, 1, 64)
	stack[0] = frame{t.Root, 0}
	var clock int32
	t.tin[t.Root] = clock
	clock++
	t.Order = append(t.Order, t.Root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		u := f.node
		if off[u]+f.next < off[u+1] {
			h := adjBuf[off[u]+f.next]
			f.next++
			v := h.Peer
			if t.InTree[v] {
				continue
			}
			t.InTree[v] = true
			t.Parent[v] = u
			t.ParentLink[v] = h.Edge
			t.Depth[v] = t.Depth[u] + 1
			t.DelayFromRoot[v] = t.DelayFromRoot[u] + net.Delay[h.Edge]
			t.Order = append(t.Order, v)
			t.tin[v] = clock
			clock++
			stack = append(stack, frame{v, 0})
			continue
		}
		t.tout[u] = clock
		clock++
		stack = stack[:len(stack)-1]
	}

	for _, c := range net.Clients {
		if !t.InTree[c] {
			return nil, fmt.Errorf("mtree: client %d unreachable via tree edges", c)
		}
	}

	t.buildChildren(off[:n+1])
	t.buildLifting()
	return t, nil
}

// Adjacency is the tree-link adjacency of a network in CSR form: one shared
// half-edge buffer plus per-node offsets, instead of n slice headers and
// Θ(n) grow-reallocations. Per-node half-edge order is the order edges
// appear in TreeEdges, which fixes Build's DFS (and with it Order, tin/tout
// and every digest downstream) and the order a tree flood draws its link
// fates in. Its users only read it, so the domain nets of a partitioned run
// share one.
type Adjacency struct {
	off []int32
	buf []graph.Half
}

// NewAdjacency builds the tree adjacency of net.
func NewAdjacency(net *topology.Network) *Adjacency {
	n := net.NumNodes()
	a := &Adjacency{
		off: make([]int32, n+1),
		buf: make([]graph.Half, 2*len(net.TreeEdges)),
	}
	for _, id := range net.TreeEdges {
		e := net.G.Edge(id)
		a.off[e.A+1]++
		a.off[e.B+1]++
	}
	for i := 0; i < n; i++ {
		a.off[i+1] += a.off[i]
	}
	cur := make([]int32, n)
	copy(cur, a.off[:n])
	for _, id := range net.TreeEdges {
		e := net.G.Edge(id)
		a.buf[cur[e.A]] = graph.Half{Edge: id, Peer: e.B}
		cur[e.A]++
		a.buf[cur[e.B]] = graph.Half{Edge: id, Peer: e.A}
		cur[e.B]++
	}
	return a
}

// Of returns node's tree half-edges.
func (a *Adjacency) Of(node graph.NodeID) []graph.Half {
	return a.buf[a.off[node]:a.off[node+1]]
}

// BuildLite is Build.
//
// Deprecated: every tree is built one way; use Build.
func BuildLite(net *topology.Network) (*Tree, error) { return Build(net) }

// buildChildren fills Children/ChildLink as sub-slices of two shared CSR
// buffers (reusing off as scratch). Children of u are appended in preorder
// over t.Order, which is exactly their DFS visit order — the same per-node
// order the old inline appends produced. Childless nodes keep nil slices.
func (t *Tree) buildChildren(off []int32) {
	n := len(t.Parent)
	for i := range off {
		off[i] = 0
	}
	for _, v := range t.Order {
		if p := t.Parent[v]; p != graph.None {
			off[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	childBuf := make([]graph.NodeID, len(t.Order)-1)
	linkBuf := make([]graph.EdgeID, len(t.Order)-1)
	for u := 0; u < n; u++ {
		if off[u] == off[u+1] {
			continue
		}
		t.Children[u] = childBuf[off[u]:off[u]:off[u+1]]
		t.ChildLink[u] = linkBuf[off[u]:off[u]:off[u+1]]
	}
	for _, v := range t.Order {
		if p := t.Parent[v]; p != graph.None {
			t.Children[p] = append(t.Children[p], v)
			t.ChildLink[p] = append(t.ChildLink[p], t.ParentLink[v])
		}
	}
}

// MustBuild is Build that panics on error.
func MustBuild(net *topology.Network) *Tree {
	t, err := Build(net)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree) buildLifting() {
	maxDepth := int32(0)
	for _, d := range t.Depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := 1
	if maxDepth > 0 {
		levels = bits.Len32(uint32(maxDepth)) // ceil(log2(maxDepth+1))
	}
	n := len(t.Parent)
	t.up = make([][]graph.NodeID, levels)
	t.up[0] = t.Parent
	for k := 1; k < levels; k++ {
		t.up[k] = make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			mid := t.up[k-1][v]
			if mid == graph.None {
				t.up[k][v] = graph.None
			} else {
				t.up[k][v] = t.up[k-1][mid]
			}
		}
	}
}

// IsAncestor reports whether a is an ancestor of b in the tree (every node
// is an ancestor of itself). False if either node is off-tree.
func (t *Tree) IsAncestor(a, b graph.NodeID) bool {
	if !t.InTree[a] || !t.InTree[b] {
		return false
	}
	return t.tin[a] <= t.tin[b] && t.tout[b] <= t.tout[a]
}

// Ancestor returns the k-th ancestor of v (0 = v itself), or None if the
// walk passes the root.
func (t *Tree) Ancestor(v graph.NodeID, k int32) graph.NodeID {
	for lvl := 0; k > 0 && v != graph.None; lvl++ {
		if k&1 == 1 {
			if lvl >= len(t.up) {
				return graph.None
			}
			v = t.up[lvl][v]
		}
		k >>= 1
	}
	return v
}

// MeetDepth returns DS_{u,v}: the depth (hop count from the source along
// the tree) of the first common router of u and v. This is the quantity
// driving all of the paper's conditional loss probabilities.
func (t *Tree) MeetDepth(u, v graph.NodeID) int32 {
	return t.Depth[t.LCA(u, v)]
}

// TreeHops returns the hop count of the tree path between a and b.
func (t *Tree) TreeHops(a, b graph.NodeID) int32 {
	l := t.LCA(a, b)
	return t.Depth[a] + t.Depth[b] - 2*t.Depth[l]
}

// TreeDelay returns the summed link delay of the tree path between a and b.
func (t *Tree) TreeDelay(a, b graph.NodeID) float64 {
	l := t.LCA(a, b)
	return t.DelayFromRoot[a] + t.DelayFromRoot[b] - 2*t.DelayFromRoot[l]
}

// PathToRoot returns the node path from v up to the root, inclusive.
func (t *Tree) PathToRoot(v graph.NodeID) []graph.NodeID {
	if !t.InTree[v] {
		return nil
	}
	path := make([]graph.NodeID, 0, t.Depth[v]+1)
	for u := v; u != graph.None; u = t.Parent[u] {
		path = append(path, u)
	}
	return path
}

// TreePath returns the node path from a to b along the tree (through their
// LCA), inclusive of both endpoints.
func (t *Tree) TreePath(a, b graph.NodeID) []graph.NodeID {
	l := t.LCA(a, b)
	var up []graph.NodeID
	for u := a; u != l; u = t.Parent[u] {
		up = append(up, u)
	}
	up = append(up, l)
	var down []graph.NodeID
	for u := b; u != l; u = t.Parent[u] {
		down = append(down, u)
	}
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// SubtreeNodes returns every tree node in the subtree rooted at r
// (including r), in preorder.
func (t *Tree) SubtreeNodes(r graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	stack := []graph.NodeID{r}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		for i := len(t.Children[u]) - 1; i >= 0; i-- {
			stack = append(stack, t.Children[u][i])
		}
	}
	return out
}

// SubtreeClients returns the group members within the subtree rooted at r.
func (t *Tree) SubtreeClients(r graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range t.SubtreeNodes(r) {
		if t.Net.IsClient(v) {
			out = append(out, v)
		}
	}
	return out
}

// SubtreeEdgeCount returns the number of tree links strictly below r —
// the bandwidth cost, in hops, of multicasting one packet to the whole
// subtree of r.
func (t *Tree) SubtreeEdgeCount(r graph.NodeID) int {
	return len(t.SubtreeNodes(r)) - 1
}

// NumTreeNodes returns the number of nodes in the tree.
func (t *Tree) NumTreeNodes() int { return len(t.Order) }

// NumTreeEdges returns the number of tree links.
func (t *Tree) NumTreeEdges() int { return len(t.Order) - 1 }

// ChildToward returns the child of ancestor anc on the tree path toward
// descendant v. It panics if anc is not a proper ancestor of v. Children
// are stored in preorder, so the child whose subtree contains v is the last
// one with tin ≤ tin[v] — a binary search over the child list, O(log deg)
// instead of the O(log n) ancestor jump it replaced.
func (t *Tree) ChildToward(anc, v graph.NodeID) graph.NodeID {
	if anc == v || !t.IsAncestor(anc, v) {
		panic(fmt.Sprintf("mtree: %d is not a proper ancestor of %d", anc, v))
	}
	kids := t.Children[anc]
	lo, hi := 0, len(kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.tin[kids[mid]] <= t.tin[v] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return kids[lo-1]
}
