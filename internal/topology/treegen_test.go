package topology

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// treeDigests pins GenerateTree's output bit for bit, captured when the
// generator still streamed through a node sink: per n, the node kinds, every
// link's endpoints, nominal and realised delays and loss, the tree edges,
// and the rng's next draw after generation (so the draw count is pinned
// too). Key: client count; the seed is 40 + n.
var treeDigests = map[int]string{
	1:    "90bf20271e97d0a5",
	2:    "ea48314b714a547d",
	7:    "328f1a262e59a157",
	100:  "b4da2e4b111ee804",
	2053: "022d9fc8a7adc031",
}

// TestGenerateTreeDigest checks GenerateTree against treeDigests.
func TestGenerateTreeDigest(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 2053} {
		r := rng.New(uint64(40 + n))
		net, err := GenerateTree(DefaultTreeConfig(n), r)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "kinds=%v source=%d clients=%v tree=%v\n", net.Kind, net.Source, net.Clients, net.TreeEdges)
		for id := 0; id < net.NumLinks(); id++ {
			e := net.G.Edge(graph.EdgeID(id))
			fmt.Fprintf(h, "%d-%d %x %x %x\n", e.A, e.B,
				math.Float64bits(net.Nominal[id]), math.Float64bits(net.Delay[id]), math.Float64bits(net.Loss[id]))
		}
		fmt.Fprintf(h, "next=%x\n", math.Float64bits(r.Float64()))
		if got, want := fmt.Sprintf("%016x", h.Sum64()), treeDigests[n]; got != want {
			t.Errorf("n=%d: digest %s, want %s", n, got, want)
		}
	}
}

func TestGenerateTreeShape(t *testing.T) {
	for _, n := range []int{1, 2, 10, 500} {
		net, err := GenerateTree(DefaultTreeConfig(n), rng.New(uint64(n)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(net.Clients) != n {
			t.Fatalf("n=%d: got %d clients", n, len(net.Clients))
		}
		// Tree-only: every link is a tree link — the property that makes
		// the batch planner's fast path engage unconditionally.
		if len(net.TreeEdges) != net.NumLinks() {
			t.Fatalf("n=%d: %d tree edges of %d links", n, len(net.TreeEdges), net.NumLinks())
		}
		if net.NumLinks() != net.NumNodes()-1 {
			t.Fatalf("n=%d: %d links for %d nodes, want a tree", n, net.NumLinks(), net.NumNodes())
		}
	}
}

func TestGenerateTreeDeterministic(t *testing.T) {
	a, err := GenerateTree(DefaultTreeConfig(200), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTree(DefaultTreeConfig(200), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Delay {
		if a.Delay[i] != b.Delay[i] {
			t.Fatal("same seed produced different delays")
		}
	}
}

func TestGenerateTreeRejectsBadConfig(t *testing.T) {
	bad := []TreeConfig{
		{Clients: 0, ClientsPerRouter: 4, DelayMin: 1, DelayMax: 10, AccessDelay: 1},
		{Clients: 10, ClientsPerRouter: 0, DelayMin: 1, DelayMax: 10, AccessDelay: 1},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 0, DelayMax: 10, AccessDelay: 1},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 5, DelayMax: 2, AccessDelay: 1},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 1, DelayMax: 10, AccessDelay: 0},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 1, DelayMax: 10, AccessDelay: 1, LossProb: 1.5},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: nan, DelayMax: 10, AccessDelay: 1},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 1, DelayMax: nan, AccessDelay: 1},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 1, DelayMax: 10, AccessDelay: nan},
		{Clients: 10, ClientsPerRouter: 4, DelayMin: 1, DelayMax: 10, AccessDelay: 1, LossProb: nan},
	}
	for i, cfg := range bad {
		if _, err := GenerateTree(cfg, rng.New(1)); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
