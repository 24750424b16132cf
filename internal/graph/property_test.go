package graph

import (
	"math"
	"testing"
	"testing/quick"

	"rmcast/internal/rng"
)

// genConnected builds a random connected graph from a compact seed tuple,
// for quick.Check properties.
func genConnected(seed uint64, sizeByte, extraByte uint8) *Undirected {
	r := rng.New(seed)
	n := 3 + int(sizeByte)%60
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(perm[i]), NodeID(perm[r.Intn(i)]), r.Uniform(1, 10))
	}
	extra := int(extraByte) % n
	for i := 0; i < extra; i++ {
		a, b := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if a != b {
			g.AddEdge(a, b, r.Uniform(1, 10))
		}
	}
	return g
}

// Property: every generated graph is connected and BFS visits all nodes.
func TestPropGeneratedGraphsConnected(t *testing.T) {
	f := func(seed uint64, size, extra uint8) bool {
		g := genConnected(seed, size, extra)
		return Connected(g) && len(BFS(g, 0).Order) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distance is a metric lower bound on Dijkstra hops — the
// weighted shortest path can never use fewer edges than the unweighted one.
func TestPropBFSHopsLowerBoundDijkstraPath(t *testing.T) {
	f := func(seed uint64, size, extra uint8) bool {
		g := genConnected(seed, size, extra)
		r := rng.New(seed ^ 0xabcdef)
		src := NodeID(r.Intn(g.NumNodes()))
		dst := NodeID(r.Intn(g.NumNodes()))
		bfs := BFS(g, src)
		sp := Dijkstra(g, src, nil)
		path := sp.PathTo(dst)
		return len(path)-1 >= int(bfs.Dist[dst])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every uniform spanning tree has exactly n−1 edges and connects
// the graph.
func TestPropSpanningTreeShape(t *testing.T) {
	f := func(seed uint64, size, extra uint8) bool {
		g := genConnected(seed, size, extra)
		return isSpanningTree(g, RandomSpanningTree(g, rng.New(seed^0x777)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of distinct union-find roots equals the graph's
// component count.
func TestPropUnionFindMatchesComponents(t *testing.T) {
	f := func(seed uint64, size, edges uint8) bool {
		r := rng.New(seed)
		n := 2 + int(size)%50
		g := New(n)
		uf := NewUnionFind(n)
		for i := 0; i < int(edges)%80; i++ {
			a, b := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if a == b {
				continue
			}
			g.AddEdge(a, b, 1)
			uf.Union(int32(a), int32(b))
		}
		roots := 0
		for x := range n {
			if uf.Find(int32(x)) == int32(x) {
				roots++
			}
		}
		_, nc := Components(g)
		return roots == nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra distances satisfy d(src,v) ≤ d(src,u) + w(u,v) for all
// edges (already covered directionally) and path reconstruction lengths
// match distances.
func TestPropDijkstraPathSumsMatchDistances(t *testing.T) {
	f := func(seed uint64, size, extra uint8) bool {
		g := genConnected(seed, size, extra)
		sp := Dijkstra(g, 0, nil)
		for v := 0; v < g.NumNodes(); v++ {
			ep := sp.EdgePathTo(NodeID(v))
			var sum float64
			for _, id := range ep {
				sum += g.Edge(id).Weight
			}
			if math.Abs(sum-sp.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
