package graph

import (
	"math"
	"testing"

	"rmcast/internal/rng"
)

// isSpanningTree verifies |E| = |V|-1 and acyclicity of the edge subset:
// n − 1 acyclic edges always connect all n nodes.
func isSpanningTree(g *Undirected, edges []EdgeID) bool {
	if len(edges) != g.NumNodes()-1 {
		return false
	}
	uf := NewUnionFind(g.NumNodes())
	for _, id := range edges {
		e := g.Edge(id)
		if !uf.Union(int32(e.A), int32(e.B)) {
			return false // cycle
		}
	}
	return true
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("fresh unions should succeed")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union should fail")
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Fatal("Find inconsistent with unions")
	}
}

func TestRandomSpanningTreeIsSpanning(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(50)
		g := New(n)
		perm := r.Perm(n)
		for i := 1; i < n; i++ {
			g.AddEdge(NodeID(perm[i]), NodeID(perm[r.Intn(i)]), 1)
		}
		for i := 0; i < n; i++ {
			a, b := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if a != b && !g.HasEdgeBetween(a, b) {
				g.AddEdge(a, b, 1)
			}
		}
		tree := RandomSpanningTree(g, r)
		if !isSpanningTree(g, tree) {
			t.Fatalf("trial %d: Wilson output is not a spanning tree", trial)
		}
	}
}

func TestRandomSpanningTreeUniformOnTriangle(t *testing.T) {
	// A triangle has exactly 3 spanning trees; Wilson's algorithm must pick
	// each with probability 1/3.
	g := New(3)
	g.AddEdge(0, 1, 1) // tree "missing edge 2"
	g.AddEdge(1, 2, 1) // ...
	g.AddEdge(2, 0, 1)
	r := rng.New(9)
	counts := map[EdgeID]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		tree := RandomSpanningTree(g, r)
		present := map[EdgeID]bool{}
		for _, e := range tree {
			present[e] = true
		}
		for id := EdgeID(0); id < 3; id++ {
			if !present[id] {
				counts[id]++
			}
		}
	}
	for id, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-1.0/3) > 0.02 {
			t.Fatalf("missing-edge %d frequency %v, want ~1/3", id, got)
		}
	}
}

func TestDAGShortestPaths(t *testing.T) {
	// Diamond with a cheaper lower path.
	d := NewDigraph(4)
	d.AddArc(0, 1, 1)
	d.AddArc(0, 2, 5)
	d.AddArc(1, 3, 1)
	d.AddArc(2, 3, 1)
	d.AddArc(0, 3, 10)
	dist, parent := DAGShortestPaths(d, 0, []NodeID{0, 1, 2, 3})
	if dist[3] != 2 || parent[3] != 1 || parent[1] != 0 {
		t.Fatalf("DAG SP wrong: dist %v parent %v", dist, parent)
	}
}

func TestDAGShortestPathsMatchesDijkstra(t *testing.T) {
	// Random DAG (arcs only low→high ID); compare with Dijkstra run on an
	// equivalent undirected simulation via brute-force relaxation.
	r := rng.New(4242)
	for trial := 0; trial < 20; trial++ {
		n := 30
		d := NewDigraph(n)
		type arc struct {
			a, b NodeID
			w    float64
		}
		var arcs []arc
		for i := 0; i < 120; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			w := r.Uniform(0, 10)
			d.AddArc(NodeID(a), NodeID(b), w)
			arcs = append(arcs, arc{NodeID(a), NodeID(b), w})
		}
		// Arcs only go low→high ID, so ascending IDs are a topological order.
		order := make([]NodeID, n)
		for i := range order {
			order[i] = NodeID(i)
		}
		dist, _ := DAGShortestPaths(d, 0, order)
		// Bellman–Ford reference.
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = math.Inf(1)
		}
		ref[0] = 0
		for iter := 0; iter < n; iter++ {
			for _, a := range arcs {
				if nd := ref[a.a] + a.w; nd < ref[a.b] {
					ref[a.b] = nd
				}
			}
		}
		for v := 0; v < n; v++ {
			if math.Abs(dist[v]-ref[v]) > 1e-9 && !(math.IsInf(dist[v], 1) && math.IsInf(ref[v], 1)) {
				t.Fatalf("trial %d: dist[%d] = %v, ref %v", trial, v, dist[v], ref[v])
			}
		}
	}
}
