package mtree

import (
	"fmt"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// naiveLCA walks parents upward — the O(depth) reference implementation.
func naiveLCA(tr *Tree, a, b graph.NodeID) graph.NodeID {
	seen := map[graph.NodeID]bool{}
	for u := a; u != graph.None; u = tr.Parent[u] {
		seen[u] = true
	}
	for u := b; u != graph.None; u = tr.Parent[u] {
		if seen[u] {
			return u
		}
	}
	return graph.None
}

type treeShape struct {
	name string
	tree *Tree
}

// naiveWalkShapes returns every tree shape the repo builds: chorded
// topologies, tree-only topologies from 2 to 513 clients, and a 300-hop
// chain deep enough that the lifting table spans 9 rows.
func naiveWalkShapes(t *testing.T) []treeShape {
	t.Helper()
	var shapes []treeShape
	for _, seed := range []uint64{1, 7, 42} {
		net := topology.MustGenerate(topology.DefaultConfig(150), rng.New(seed))
		shapes = append(shapes, treeShape{fmt.Sprintf("chorded seed %d", seed), MustBuild(net)})
	}
	for _, n := range []int{2, 7, 64, 513} {
		net, err := topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(uint64(900+n)))
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, treeShape{fmt.Sprintf("tree n=%d", n), MustBuild(net)})
	}
	var clientAt []int
	for i := 7; i <= 300; i += 11 {
		clientAt = append(clientAt, i)
	}
	chain := buildChain(t, 300, clientAt)
	if len(chain.up) < 9 {
		t.Fatalf("300-hop chain: lifting spans %d rows, want at least 9", len(chain.up))
	}
	return append(shapes, treeShape{"300-hop chain", chain})
}

// TestLCAMatchesNaive checks LCA against parent walks on arbitrary in-tree
// pairs, router/router included, on every shape of naiveWalkShapes.
func TestLCAMatchesNaive(t *testing.T) {
	for i, sh := range naiveWalkShapes(t) {
		tree := sh.tree
		r := rng.New(uint64(i) + 99)
		for j := 0; j < 2000; j++ {
			a := tree.Order[r.Intn(len(tree.Order))]
			b := tree.Order[r.Intn(len(tree.Order))]
			if got, want := tree.LCA(a, b), naiveLCA(tree, a, b); got != want {
				t.Fatalf("%s: LCA(%d,%d) = %d, naive walk says %d", sh.name, a, b, got, want)
			}
		}
	}
}

// TestLCAMatchesNaiveWalk checks the planner's lifting queries against
// parent walks on every shape of naiveWalkShapes: LCA on every client
// pair, Ancestor(v, k) for k = 0…depth+1 and ChildToward from each proper
// ancestor of every node.
func TestLCAMatchesNaiveWalk(t *testing.T) {
	for _, sh := range naiveWalkShapes(t) {
		tree := sh.tree
		// Every client pair (the planner's workload) plus self-pairs.
		for _, a := range tree.Clients {
			for _, b := range tree.Clients {
				if got, want := tree.LCA(a, b), naiveLCA(tree, a, b); got != want {
					t.Fatalf("%s: LCA(%d,%d) = %d, naive walk says %d", sh.name, a, b, got, want)
				}
			}
		}
		// Every node's ancestors, one parent step at a time.
		for _, v := range tree.Order {
			want, below := v, graph.None
			for k := int32(0); k <= tree.Depth[v]+1; k++ {
				if got := tree.Ancestor(v, k); got != want {
					t.Fatalf("%s: Ancestor(%d,%d) = %d, parent walk says %d", sh.name, v, k, got, want)
				}
				if want != graph.None && below != graph.None {
					if got := tree.ChildToward(want, v); got != below {
						t.Fatalf("%s: ChildToward(%d,%d) = %d, parent walk says %d",
							sh.name, want, v, got, below)
					}
				}
				if want != graph.None {
					below, want = want, tree.Parent[want]
				}
			}
		}
	}
}
