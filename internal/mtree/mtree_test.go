package mtree

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

func buildChain(t *testing.T, hops int, clientAt []int) *Tree {
	t.Helper()
	net, err := topology.Chain(hops, 1.0, clientAt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(net)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildChainDepths(t *testing.T) {
	tr := buildChain(t, 4, nil)
	if tr.Depth[tr.Root] != 0 {
		t.Fatal("root depth must be 0")
	}
	// Source → r1..r4 → client: client depth = 5.
	c := tr.Clients[0]
	if tr.Depth[c] != 5 {
		t.Fatalf("tail client depth %d, want 5", tr.Depth[c])
	}
	if tr.DelayFromRoot[c] != 5.0 {
		t.Fatalf("tail client delay %v, want 5", tr.DelayFromRoot[c])
	}
	if tr.NumTreeNodes() != 6 || tr.NumTreeEdges() != 5 {
		t.Fatal("tree size wrong")
	}
}

func TestParentChildConsistency(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(120), rng.New(5))
	tr := MustBuild(net)
	for _, v := range tr.Order {
		if v == tr.Root {
			if tr.Parent[v] != graph.None {
				t.Fatal("root has a parent")
			}
			continue
		}
		p := tr.Parent[v]
		found := false
		for i, c := range tr.Children[p] {
			if c == v {
				found = true
				if tr.ChildLink[p][i] != tr.ParentLink[v] {
					t.Fatalf("child link mismatch at %d", v)
				}
			}
		}
		if !found {
			t.Fatalf("node %d missing from parent's child list", v)
		}
		if tr.Depth[v] != tr.Depth[p]+1 {
			t.Fatalf("depth not parent+1 at %d", v)
		}
		wantDelay := tr.DelayFromRoot[p] + net.Delay[tr.ParentLink[v]]
		if math.Abs(tr.DelayFromRoot[v]-wantDelay) > 1e-9 {
			t.Fatalf("delay accumulation wrong at %d", v)
		}
	}
}

func TestLCAIdentityAndAncestor(t *testing.T) {
	tr := buildChain(t, 3, []int{1, 2})
	c := tr.Clients[0]
	if tr.LCA(c, c) != c {
		t.Fatal("LCA(v,v) != v")
	}
	if tr.LCA(tr.Root, c) != tr.Root {
		t.Fatal("LCA(root, v) != root")
	}
}

func TestMeetDepthChain(t *testing.T) {
	// Chain with 3 routers: clients at r1, r2 and the tail at r3.
	tr := buildChain(t, 3, []int{1, 2})
	tail := tr.Clients[0] // tail client (added first by Chain)
	c1 := tr.Clients[1]   // at r1 (depth of r1 = 1)
	c2 := tr.Clients[2]   // at r2 (depth 2)
	if ds := tr.MeetDepth(tail, c1); ds != 1 {
		t.Fatalf("MeetDepth(tail, c1) = %d, want 1", ds)
	}
	if ds := tr.MeetDepth(tail, c2); ds != 2 {
		t.Fatalf("MeetDepth(tail, c2) = %d, want 2", ds)
	}
	if ds := tr.MeetDepth(c1, c2); ds != 1 {
		t.Fatalf("MeetDepth(c1, c2) = %d, want 1", ds)
	}
}

func TestIsAncestor(t *testing.T) {
	tr := buildChain(t, 3, []int{1})
	tail := tr.Clients[0]
	side := tr.Clients[1]
	if !tr.IsAncestor(tr.Root, tail) || !tr.IsAncestor(tail, tail) {
		t.Fatal("ancestor relation broken")
	}
	if tr.IsAncestor(tail, tr.Root) {
		t.Fatal("descendant reported as ancestor")
	}
	if tr.IsAncestor(side, tail) || tr.IsAncestor(tail, side) {
		t.Fatal("siblings reported as ancestors")
	}
}

func TestAncestorWalk(t *testing.T) {
	tr := buildChain(t, 4, nil)
	c := tr.Clients[0] // depth 5
	if tr.Ancestor(c, 0) != c {
		t.Fatal("0th ancestor should be self")
	}
	if tr.Ancestor(c, 5) != tr.Root {
		t.Fatal("depth-th ancestor should be root")
	}
	if tr.Ancestor(c, 6) != graph.None {
		t.Fatal("walking past root should give None")
	}
	if tr.Ancestor(c, 2) != tr.Parent[tr.Parent[c]] {
		t.Fatal("2nd ancestor wrong")
	}
}

func TestTreeHopsAndDelay(t *testing.T) {
	tr := buildChain(t, 3, []int{1})
	tail := tr.Clients[0] // depth 4, via r3
	side := tr.Clients[1] // depth 2, at r1
	// Path: side→r1→r2→r3→tail = 4 hops, delay 4.
	if h := tr.TreeHops(side, tail); h != 4 {
		t.Fatalf("TreeHops = %d, want 4", h)
	}
	if d := tr.TreeDelay(side, tail); math.Abs(d-4) > 1e-9 {
		t.Fatalf("TreeDelay = %v, want 4", d)
	}
	if h := tr.TreeHops(tail, tail); h != 0 {
		t.Fatal("TreeHops(v,v) != 0")
	}
}

func TestTreePath(t *testing.T) {
	tr := buildChain(t, 3, []int{1})
	tail := tr.Clients[0]
	side := tr.Clients[1]
	p := tr.TreePath(side, tail)
	if p[0] != side || p[len(p)-1] != tail {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	if len(p) != int(tr.TreeHops(side, tail))+1 {
		t.Fatalf("path length %d inconsistent with hops", len(p))
	}
	// Consecutive nodes must be parent/child pairs.
	for i := 0; i+1 < len(p); i++ {
		a, b := p[i], p[i+1]
		if tr.Parent[a] != b && tr.Parent[b] != a {
			t.Fatalf("path step %d-%d not a tree edge", a, b)
		}
	}
}

func TestSubtree(t *testing.T) {
	net, err := topology.Binary(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := MustBuild(net)
	// Root router subtree: all nodes except the source = 15.
	rootRouter := tr.Children[tr.Root][0]
	sub := tr.SubtreeNodes(rootRouter)
	if len(sub) != 15 {
		t.Fatalf("subtree size %d, want 15", len(sub))
	}
	if tr.SubtreeEdgeCount(rootRouter) != 14 {
		t.Fatal("subtree edge count wrong")
	}
	clients := tr.SubtreeClients(rootRouter)
	if len(clients) != 8 {
		t.Fatalf("subtree clients %d, want 8", len(clients))
	}
	// A leaf's subtree is itself.
	leaf := tr.Clients[0]
	if n := tr.SubtreeNodes(leaf); len(n) != 1 || n[0] != leaf {
		t.Fatal("leaf subtree wrong")
	}
}

func TestChildToward(t *testing.T) {
	tr := buildChain(t, 3, nil)
	c := tr.Clients[0]
	r1 := tr.Children[tr.Root][0]
	if got := tr.ChildToward(tr.Root, c); got != r1 {
		t.Fatalf("ChildToward(root, c) = %d, want %d", got, r1)
	}
	if got := tr.ChildToward(tr.Parent[c], c); got != c {
		t.Fatal("ChildToward(parent, c) should be c")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ChildToward(v, v) did not panic")
		}
	}()
	tr.ChildToward(c, c)
}

func TestPathToRoot(t *testing.T) {
	tr := buildChain(t, 2, nil)
	c := tr.Clients[0]
	p := tr.PathToRoot(c)
	if len(p) != 4 || p[0] != c || p[len(p)-1] != tr.Root {
		t.Fatalf("bad PathToRoot %v", p)
	}
}

func TestOffTreeNodes(t *testing.T) {
	// Hand-built network with an off-tree router.
	b := topology.NewBuilder()
	s := b.Source()
	r1 := b.Router()
	r2 := b.Router() // off-tree: linked but not a tree edge
	c := b.Client()
	b.TreeLink(s, r1, 1)
	b.TreeLink(r1, c, 1)
	b.Link(r1, r2, 1)
	b.Link(r2, c, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := MustBuild(net)
	if tr.InTree[r2] {
		t.Fatal("off-tree router marked in-tree")
	}
	if tr.Depth[r2] != -1 || tr.PathToRoot(r2) != nil {
		t.Fatal("off-tree router has tree attributes")
	}
	if tr.IsAncestor(r2, c) || tr.IsAncestor(s, r2) {
		t.Fatal("ancestor relation includes off-tree node")
	}
}

func TestBuildRejectsDisconnectedClient(t *testing.T) {
	// Manually corrupt a network: client present but no tree edge to it.
	b := topology.NewBuilder()
	s := b.Source()
	r := b.Router()
	c1 := b.Client()
	c2 := b.Client()
	b.TreeLink(s, r, 1)
	b.TreeLink(r, c1, 1)
	b.Link(r, c2, 1) // c2 connected, but NOT via tree
	net, err := b.Build()
	if err == nil {
		// Build validates tree connectivity too; if it passed, mtree must
		// catch it.
		if _, err := Build(net); err == nil {
			t.Fatal("disconnected client not rejected")
		}
		return
	}
	// topology.Validate caught it first — also acceptable.
	_ = c2
}

func TestRandomTopologyTreeMatchesNetworkTree(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		net := topology.MustGenerate(topology.DefaultConfig(90), rng.New(seed))
		tr := MustBuild(net)
		if tr.NumTreeEdges() != len(net.TreeEdges) {
			t.Fatalf("seed %d: tree edge count mismatch", seed)
		}
		for _, c := range net.Clients {
			if !tr.InTree[c] {
				t.Fatalf("seed %d: client %d off tree", seed, c)
			}
			if tr.Depth[c] <= 0 {
				t.Fatalf("seed %d: client %d depth %d", seed, c, tr.Depth[c])
			}
		}
	}
}

func BenchmarkBuild600(b *testing.B) {
	net := topology.MustGenerate(topology.DefaultConfig(600), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Build(net)
	}
}
