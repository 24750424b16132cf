package graph

import "math"

// ShortestPaths holds a single-source shortest-path tree computed by
// Dijkstra. It mirrors BFSResult but with float64 distances.
type ShortestPaths struct {
	Source     NodeID
	Dist       []float64 // +Inf where unreachable
	Parent     []NodeID
	ParentEdge []EdgeID
	// Hops is the edge count of the shortest-delay path from Source; -1
	// where unreachable. Maintained during relaxation so path callers can
	// pre-size reconstruction buffers and hop queries need no path walk.
	Hops []int32
}

// WeightFunc maps an edge to its traversal cost. It must return a
// non-negative, finite value for every edge it is asked about.
type WeightFunc func(EdgeID) float64

// DefaultWeights returns a WeightFunc that reads the weight stored on each
// edge of g.
func DefaultWeights(g *Undirected) WeightFunc {
	return func(id EdgeID) float64 { return g.Edge(id).Weight }
}

// spItem is one binary-heap entry for Dijkstra. Lazily-deleted duplicates
// are cheaper than a decrease-key heap at the sizes we run (≤ a few thousand
// nodes).
type spItem struct {
	dist float64
	node NodeID
}

// spHeap is a typed binary min-heap on dist. The sift routines mirror
// container/heap's up/down exactly (strict less, left child preferred on
// ties), so the pop order — and with it every tie-dependent parent choice —
// is identical to the boxed implementation this replaced, without the
// per-item interface{} allocation.
type spHeap []spItem

func (h *spHeap) push(it spItem) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *spHeap) pop() spItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// Dijkstra computes single-source shortest paths from src using the given
// weight function (nil means the edges' stored weights). Negative weights
// cause a panic: the routing substrate only ever uses link delays, which are
// strictly positive.
func Dijkstra(g *Undirected, src NodeID, w WeightFunc) *ShortestPaths {
	if w == nil {
		w = DefaultWeights(g)
	}
	n := g.NumNodes()
	res := &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
		Hops:       make([]int32, n),
	}
	for i := range res.Dist {
		res.Dist[i] = math.Inf(1)
		res.Parent[i] = None
		res.ParentEdge[i] = NoEdge
		res.Hops[i] = -1
	}
	res.Dist[src] = 0
	res.Hops[src] = 0
	done := make([]bool, n)
	h := spHeap{{0, src}}
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue // stale duplicate
		}
		done[u] = true
		for _, half := range g.Neighbors(u) {
			cost := w(half.Edge)
			if cost < 0 {
				panic("graph: Dijkstra given negative edge weight")
			}
			nd := it.dist + cost
			if nd < res.Dist[half.Peer] {
				res.Dist[half.Peer] = nd
				res.Parent[half.Peer] = u
				res.ParentEdge[half.Peer] = half.Edge
				res.Hops[half.Peer] = res.Hops[u] + 1
				h.push(spItem{nd, half.Peer})
			}
		}
	}
	return res
}

// PathTo reconstructs the node path Source→target. Nil if unreachable.
// The result is sized exactly from the stored hop count, filled back to
// front, so reconstruction is one allocation and no reversal.
func (r *ShortestPaths) PathTo(target NodeID) []NodeID {
	if math.IsInf(r.Dist[target], 1) {
		return nil
	}
	path := make([]NodeID, r.Hops[target]+1)
	i := len(path) - 1
	for v := target; v != None; v = r.Parent[v] {
		path[i] = v
		i--
	}
	return path
}

// EdgePathTo reconstructs the edge path Source→target. Nil if unreachable;
// empty (non-nil) if target == Source.
func (r *ShortestPaths) EdgePathTo(target NodeID) []EdgeID {
	if math.IsInf(r.Dist[target], 1) {
		return nil
	}
	path := make([]EdgeID, r.Hops[target])
	i := len(path) - 1
	for v := target; r.Parent[v] != None; v = r.Parent[v] {
		path[i] = r.ParentEdge[v]
		i--
	}
	return path
}

// DAGShortestPaths computes single-source shortest paths in a directed
// acyclic graph by relaxing arcs in topological order. order must be a
// topological order of every node reachable from src (extra nodes are
// harmless). This is the O(V+E) primitive underlying the paper's
// Algorithm 1; the specialised, pruned version lives in internal/core.
func DAGShortestPaths(d *Digraph, src NodeID, order []NodeID) ([]float64, []NodeID) {
	n := d.NumNodes()
	dist := make([]float64, n)
	parent := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = None
	}
	dist[src] = 0
	for _, u := range order {
		if math.IsInf(dist[u], 1) {
			continue
		}
		for _, a := range d.Out(u) {
			if nd := dist[u] + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = u
			}
		}
	}
	return dist, parent
}
