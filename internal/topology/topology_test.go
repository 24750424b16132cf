package topology

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

func TestGenerateBasicInvariants(t *testing.T) {
	for _, m := range []int{10, 50, 100, 200} {
		cfg := DefaultConfig(m)
		net, err := Generate(cfg, rng.New(uint64(m)))
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		// Host counts: m routers + 1 source + k clients.
		if net.NumNodes() != m+1+len(net.Clients) {
			t.Fatalf("m=%d: node count %d != routers+source+clients", m, net.NumNodes())
		}
		// Tree edge count: spanning tree of routers (m-1) + access links
		// (1 source + k clients).
		want := (m - 1) + 1 + len(net.Clients)
		if len(net.TreeEdges) != want {
			t.Fatalf("m=%d: %d tree edges, want %d", m, len(net.TreeEdges), want)
		}
		if net.Kind[net.Source] != Source {
			t.Fatalf("m=%d: source kind %v", m, net.Kind[net.Source])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(80), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(80), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Delay {
		if a.Delay[i] != b.Delay[i] {
			t.Fatalf("same seed produced different delay on link %d", i)
		}
	}
	if len(a.Clients) != len(b.Clients) {
		t.Fatal("same seed produced different client counts")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(DefaultConfig(80), rng.New(1))
	b, _ := Generate(DefaultConfig(80), rng.New(2))
	if a.NumLinks() == b.NumLinks() && len(a.Clients) == len(b.Clients) {
		same := true
		for i := range a.Delay {
			if a.Delay[i] != b.Delay[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical networks")
		}
	}
}

func TestGenerateClientFractionPlausible(t *testing.T) {
	// Uniform spanning trees have roughly n/e leaves; the paper's
	// topologies have client fractions 0.28–0.42. Assert we land in a
	// generous band around that.
	var total, clients int
	for seed := uint64(0); seed < 10; seed++ {
		net, err := Generate(DefaultConfig(200), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		total += 200
		clients += len(net.Clients)
	}
	frac := float64(clients) / float64(total)
	if frac < 0.2 || frac > 0.55 {
		t.Fatalf("client fraction %v outside plausible band [0.2,0.55]", frac)
	}
}

func TestGenerateMeanDegree(t *testing.T) {
	cfg := DefaultConfig(300)
	net, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Count only router-router links.
	backboneLinks := 0
	for _, e := range net.G.Edges() {
		if net.Kind[e.A] == Router && net.Kind[e.B] == Router {
			backboneLinks++
		}
	}
	deg := 2 * float64(backboneLinks) / 300
	if deg < 2.5 || deg > 3.5 {
		t.Fatalf("mean backbone degree %v, want ≈3", deg)
	}
}

func TestGenerateNoHosts(t *testing.T) {
	cfg := DefaultConfig(60)
	cfg.AttachHosts = false
	net, err := Generate(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 60 {
		t.Fatalf("no-host mode added nodes: %d", net.NumNodes())
	}
	if len(net.TreeEdges) != 59 {
		t.Fatalf("no-host tree should have 59 edges, got %d", len(net.TreeEdges))
	}
	if net.Kind[net.Source] != Source {
		t.Fatal("source kind not set in no-host mode")
	}
}

func TestGenerateWaxman(t *testing.T) {
	cfg := DefaultConfig(80)
	cfg.Model = Waxman
	net, err := Generate(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !graph.Connected(net.G) {
		t.Fatal("Waxman network disconnected")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Routers: 1, DelayMin: 1, DelayMax: 10, AccessDelay: 1, MeanDegree: 3},
		{Routers: 10, DelayMin: 0, DelayMax: 10, AccessDelay: 1, MeanDegree: 3},
		{Routers: 10, DelayMin: 5, DelayMax: 4, AccessDelay: 1, MeanDegree: 3},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: 0, MeanDegree: 3},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: 1, MeanDegree: 3, LossProb: 1.5},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: 1, MeanDegree: 1},
		// NaN fails every range check.
		{Routers: 10, DelayMin: nan, DelayMax: 10, AccessDelay: 1, MeanDegree: 3},
		{Routers: 10, DelayMin: 1, DelayMax: nan, AccessDelay: 1, MeanDegree: 3},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: nan, MeanDegree: 3},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: 1, MeanDegree: 3, LossProb: nan},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: 1, MeanDegree: nan},
		{Routers: 10, DelayMin: 1, DelayMax: 10, AccessDelay: 1, MeanDegree: 3,
			Tree: ShortestPathTree, ClientFraction: nan},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng.New(1)); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// nan is a quiet NaN for the bad-config tables.
var nan = math.NaN()

// TestValidateRejectsNaN checks Network.Validate against a NaN link delay
// and a NaN link loss.
func TestValidateRejectsNaN(t *testing.T) {
	for _, field := range []string{"delay", "loss"} {
		net, err := Generate(DefaultConfig(20), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if field == "delay" {
			net.Delay[0] = nan
		} else {
			net.Loss[0] = nan
		}
		if err := net.Validate(); err == nil {
			t.Errorf("NaN link %s accepted", field)
		}
	}
}

func TestDelaysWithinNominalBand(t *testing.T) {
	net, err := Generate(DefaultConfig(100), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Delay {
		if net.Delay[i] < net.Nominal[i] || net.Delay[i] > 2*net.Nominal[i] {
			t.Fatalf("link %d delay %v outside [d,2d]", i, net.Delay[i])
		}
	}
}

func TestSetUniformLoss(t *testing.T) {
	net, _ := Generate(DefaultConfig(30), rng.New(1))
	net.SetUniformLoss(0.13)
	for i, p := range net.Loss {
		if p != 0.13 {
			t.Fatalf("link %d loss %v", i, p)
		}
	}
	for _, p := range []float64{2, -0.1, nan} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("out-of-range loss %v did not panic", p)
				}
			}()
			net.SetUniformLoss(p)
		}()
	}
}

func TestBuilderChain(t *testing.T) {
	net, err := Chain(4, 2.0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// 1 source + 4 routers + 2 clients (tail + attached).
	if net.NumNodes() != 7 {
		t.Fatalf("chain node count %d, want 7", net.NumNodes())
	}
	if len(net.Clients) != 2 {
		t.Fatalf("chain client count %d, want 2", len(net.Clients))
	}
	if len(net.TreeEdges) != net.NumLinks() {
		t.Fatal("all chain links should be tree links")
	}
	for i, d := range net.Delay {
		if d != 2.0 {
			t.Fatalf("link %d delay %v, want exact 2.0", i, d)
		}
	}
}

func TestBuilderChainRejectsBadIndex(t *testing.T) {
	if _, err := Chain(3, 1, []int{4}); err == nil {
		t.Fatal("out-of-range client index accepted")
	}
	if _, err := Chain(0, 1, nil); err == nil {
		t.Fatal("zero-hop chain accepted")
	}
}

func TestBuilderStar(t *testing.T) {
	net, err := Star(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Clients) != 5 || net.NumNodes() != 7 {
		t.Fatalf("star shape wrong: %d clients %d nodes", len(net.Clients), net.NumNodes())
	}
}

func TestBuilderBinary(t *testing.T) {
	net, err := Binary(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// depth 3: routers 1+2+4=7, clients 8, source 1.
	if net.NumNodes() != 16 || len(net.Clients) != 8 {
		t.Fatalf("binary shape wrong: %d nodes %d clients", net.NumNodes(), len(net.Clients))
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSharedSegment(t *testing.T) {
	b := NewBuilder()
	src := b.Source()
	r1 := b.Router()
	b.TreeLink(src, r1, 1)
	c1, c2, c3 := b.Client(), b.Client(), b.Client()
	ghost, edges := b.SharedSegment([]graph.NodeID{r1, c1, c2, c3}, 0.5, true)
	b.SetLoss(edges[1], 0.3) // partial loss: only c1's branch drops
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.Kind[ghost] != Ghost {
		t.Fatal("ghost node kind wrong")
	}
	if len(edges) != 4 {
		t.Fatalf("segment edge count %d", len(edges))
	}
	if net.Loss[edges[1]] != 0.3 || net.Loss[edges[2]] != 0 {
		t.Fatal("per-branch loss not honoured")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Source()
	b.Source() // duplicate
	b.Client()
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate source accepted")
	}

	b2 := NewBuilder()
	b2.Client()
	if _, err := b2.Build(); err == nil {
		t.Fatal("missing source accepted")
	}

	for _, d := range []float64{-1, nan} {
		b3 := NewBuilder()
		s := b3.Source()
		c := b3.Client()
		b3.Link(s, c, d)
		if _, err := b3.Build(); err == nil {
			t.Fatalf("delay %v accepted", d)
		}
	}

	for _, p := range []float64{1.5, nan} {
		b4 := NewBuilder()
		s := b4.Source()
		c := b4.Client()
		b4.SetLoss(b4.TreeLink(s, c, 1), p)
		if _, err := b4.Build(); err == nil {
			t.Fatalf("loss %v accepted", p)
		}
	}
}

// TestBuildRejectsUnboundedDelay: an infinite link delay, or finite delays
// whose sum overflows to +Inf, is a build error, not a network whose first
// run schedules an event at +Inf and panics.
func TestBuildRejectsUnboundedDelay(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		d1, d2 float64
	}{
		{"infinite delay", 1, inf},
		{"delays sum past the largest float", 1e308, 1e308},
	} {
		b := NewBuilder()
		s, r, c := b.Source(), b.Router(), b.Client()
		b.TreeLink(s, r, tc.d1)
		b.TreeLink(r, c, tc.d2)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: built", tc.name)
		}
	}
	net, err := Generate(DefaultConfig(20), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	net.Nominal[0], net.Delay[0] = inf, inf
	if err := net.Validate(); err == nil {
		t.Error("infinite link delay validated")
	}
}

func TestBuilderCycleInTreeRejected(t *testing.T) {
	b := NewBuilder()
	s := b.Source()
	r := b.Router()
	c := b.Client()
	b.TreeLink(s, r, 1)
	b.TreeLink(r, c, 1)
	b.TreeLink(c, s, 1) // closes a cycle in the tree
	if _, err := b.Build(); err == nil {
		t.Fatal("cyclic tree accepted")
	}
}

func TestStandardHelper(t *testing.T) {
	net, err := Standard(50, 0.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Loss {
		if p != 0.1 {
			t.Fatal("Standard did not apply loss")
		}
	}
}

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{Router: "router", Source: "source", Client: "client", Ghost: "ghost", NodeKind(9): "kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestGenerateShortestPathTree(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Tree = ShortestPathTree
	net, err := Generate(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// Client count ≈ ClientFraction·routers.
	want := int(cfg.ClientFraction * 100)
	if len(net.Clients) != want {
		t.Fatalf("SPT clients %d, want %d", len(net.Clients), want)
	}
	// The tree must not span more backbone links than a spanning tree.
	backbone := 0
	for _, id := range net.TreeEdges {
		e := net.G.Edge(id)
		if net.Kind[e.A] == Router && net.Kind[e.B] == Router {
			backbone++
		}
	}
	if backbone > 99 {
		t.Fatalf("SPT uses %d backbone links, more than a spanning tree", backbone)
	}
}

func TestShortestPathTreeIsMinimumDelayPerClient(t *testing.T) {
	cfg := DefaultConfig(60)
	cfg.Tree = ShortestPathTree
	net, err := Generate(cfg, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	// Tree-path delay from the source's router to each attach router must
	// equal the graph's shortest delay (that is the defining property).
	// Build tree adjacency and walk.
	treeAdj := make([][]graph.Half, net.NumNodes())
	for _, id := range net.TreeEdges {
		e := net.G.Edge(id)
		treeAdj[e.A] = append(treeAdj[e.A], graph.Half{Edge: id, Peer: e.B})
		treeAdj[e.B] = append(treeAdj[e.B], graph.Half{Edge: id, Peer: e.A})
	}
	// Source host's router:
	var srcRouter graph.NodeID
	for _, h := range net.G.Neighbors(net.Source) {
		srcRouter = h.Peer
	}
	sp := graph.Dijkstra(net.G, srcRouter, net.DelayWeights())
	// DFS tree distances from srcRouter over tree links only.
	dist := make([]float64, net.NumNodes())
	seen := make([]bool, net.NumNodes())
	stack := []graph.NodeID{srcRouter}
	seen[srcRouter] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range treeAdj[u] {
			if !seen[h.Peer] {
				seen[h.Peer] = true
				dist[h.Peer] = dist[u] + net.Delay[h.Edge]
				stack = append(stack, h.Peer)
			}
		}
	}
	for _, c := range net.Clients {
		// The client's router is its single tree neighbour.
		var router graph.NodeID
		for _, h := range net.G.Neighbors(c) {
			router = h.Peer
		}
		if !seen[router] {
			t.Fatalf("attach router %d not reached via tree", router)
		}
		if diff := dist[router] - sp.Dist[router]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("tree path to %d costs %v, shortest is %v", router, dist[router], sp.Dist[router])
		}
	}
}

func TestShortestPathTreeRejectsBadFraction(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.Tree = ShortestPathTree
	cfg.ClientFraction = 0
	if _, err := Generate(cfg, rng.New(1)); err == nil {
		t.Fatal("zero client fraction accepted")
	}
	cfg.ClientFraction = 1.5
	if _, err := Generate(cfg, rng.New(1)); err == nil {
		t.Fatal("fraction above 1 accepted")
	}
}

func TestShortestPathTreeShallowerThanRandom(t *testing.T) {
	// SPT minimises source→client delay, so the mean client depth (in
	// delay) must not exceed the random spanning tree's on the same
	// backbone seed.
	depthSum := func(kind TreeKind) (float64, int) {
		cfg := DefaultConfig(150)
		cfg.Tree = kind
		net := MustGenerate(cfg, rng.New(33))
		treeAdj := make([][]graph.Half, net.NumNodes())
		for _, id := range net.TreeEdges {
			e := net.G.Edge(id)
			treeAdj[e.A] = append(treeAdj[e.A], graph.Half{Edge: id, Peer: e.B})
			treeAdj[e.B] = append(treeAdj[e.B], graph.Half{Edge: id, Peer: e.A})
		}
		dist := make([]float64, net.NumNodes())
		seen := make([]bool, net.NumNodes())
		stack := []graph.NodeID{net.Source}
		seen[net.Source] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range treeAdj[u] {
				if !seen[h.Peer] {
					seen[h.Peer] = true
					dist[h.Peer] = dist[u] + net.Delay[h.Edge]
					stack = append(stack, h.Peer)
				}
			}
		}
		var sum float64
		for _, c := range net.Clients {
			sum += dist[c]
		}
		return sum / float64(len(net.Clients)), len(net.Clients)
	}
	sptDepth, _ := depthSum(ShortestPathTree)
	rstDepth, _ := depthSum(RandomTree)
	if sptDepth >= rstDepth {
		t.Fatalf("SPT mean client delay %v not below random tree %v", sptDepth, rstDepth)
	}
}

// TestConfigMatrixAllValid sweeps the full configuration space coarsely:
// every combination must generate a valid network or reject cleanly.
func TestConfigMatrixAllValid(t *testing.T) {
	seeds := []uint64{1, 2}
	for _, model := range []Model{RandomConnected, Waxman} {
		for _, tree := range []TreeKind{RandomTree, ShortestPathTree} {
			for _, hosts := range []bool{true, false} {
				for _, loss := range []float64{0, 0.05, 0.2} {
					for _, seed := range seeds {
						cfg := DefaultConfig(50)
						cfg.Model = model
						cfg.Tree = tree
						cfg.AttachHosts = hosts
						cfg.LossProb = loss
						net, err := Generate(cfg, rng.New(seed))
						if err != nil {
							t.Fatalf("model=%d tree=%d hosts=%v loss=%v seed=%d: %v",
								model, tree, hosts, loss, seed, err)
						}
						if err := net.Validate(); err != nil {
							t.Fatalf("model=%d tree=%d hosts=%v: %v", model, tree, hosts, err)
						}
						if len(net.Clients) == 0 {
							t.Fatalf("model=%d tree=%d hosts=%v: no clients", model, tree, hosts)
						}
					}
				}
			}
		}
	}
}

func TestTransitStubConfigMatrix(t *testing.T) {
	for _, tree := range []TreeKind{RandomTree, ShortestPathTree} {
		for _, hosts := range []bool{true, false} {
			cfg := DefaultConfig(1)
			cfg.Tree = tree
			cfg.AttachHosts = hosts
			net, err := GenerateTransitStub(cfg, rng.New(9))
			if err != nil {
				t.Fatalf("tree=%d hosts=%v: %v", tree, hosts, err)
			}
			if err := net.Validate(); err != nil {
				t.Fatalf("tree=%d hosts=%v: %v", tree, hosts, err)
			}
		}
	}
}
