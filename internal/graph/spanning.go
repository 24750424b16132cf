package graph

import "rmcast/internal/rng"

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning false if they were already
// one set.
func (uf *UnionFind) Union(a, b int32) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// RandomSpanningTree returns the edge IDs of a spanning tree of g sampled
// uniformly at random from all spanning trees, using Wilson's loop-erased
// random walk algorithm. g must be connected. The uniform distribution
// matters for the experiment harness: the paper's multicast tree is "just a
// spanning subtree generated in the network topology", and a uniform sample
// avoids biasing the client (leaf) count the way, say, randomized-DFS trees
// would.
func RandomSpanningTree(g *Undirected, r *rng.Rand) []EdgeID {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	inTree := make([]bool, n)
	nextEdge := make([]EdgeID, n) // successor edge chosen during the walk
	nextNode := make([]NodeID, n)
	for i := range nextEdge {
		nextEdge[i] = NoEdge
	}
	root := NodeID(r.Intn(n))
	inTree[root] = true
	tree := make([]EdgeID, 0, n-1)
	for s := NodeID(0); int(s) < n; s++ {
		if inTree[s] {
			continue
		}
		// Random walk from s until hitting the tree, remembering the last
		// exit edge from every visited node (this implicitly loop-erases).
		for u := s; !inTree[u]; {
			hs := g.Neighbors(u)
			if len(hs) == 0 {
				panic("graph: RandomSpanningTree on disconnected graph")
			}
			h := hs[r.Intn(len(hs))]
			nextEdge[u] = h.Edge
			nextNode[u] = h.Peer
			u = h.Peer
		}
		// Commit the loop-erased path from s to the tree.
		for u := s; !inTree[u]; {
			inTree[u] = true
			tree = append(tree, nextEdge[u])
			u = nextNode[u]
		}
	}
	return tree
}
