package core

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// planner builds a Planner over a ready-made network.
func planner(t *testing.T, net *topology.Network) *Planner {
	t.Helper()
	tr, err := mtree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlanner(tr, route.Build(net))
}

func TestCandidatesChain(t *testing.T) {
	// S — r1 — r2 — r3 — tail, clients also at r1 and r2.
	net, err := topology.Chain(3, 1.0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := planner(t, net)
	tail := net.Clients[0]
	c1 := net.Clients[1] // at r1 (meet depth 1 with tail)
	c2 := net.Clients[2] // at r2 (meet depth 2 with tail)
	cands := p.Candidates(tail)
	if len(cands) != 2 {
		t.Fatalf("tail candidates %d, want 2", len(cands))
	}
	// Descending DS: c2 (DS=2) then c1 (DS=1).
	if cands[0].Peer != c2 || cands[0].DS != 2 {
		t.Fatalf("first candidate %+v, want peer %d DS 2", cands[0], c2)
	}
	if cands[1].Peer != c1 || cands[1].DS != 1 {
		t.Fatalf("second candidate %+v, want peer %d DS 1", cands[1], c1)
	}
	// RTTs: tail↔c2 = 2·(2 links) = ... tail is at depth 4 (r3+host),
	// c2 at depth 3. Path tail-r3-r2-c2: 3 links, delay 3, RTT 6.
	if math.Abs(cands[0].RTT-6) > 1e-9 {
		t.Fatalf("c2 RTT %v, want 6", cands[0].RTT)
	}
}

func TestCandidatesStarCompetitive(t *testing.T) {
	// All clients meet every other at the hub: one equivalence class.
	net, err := topology.Star(6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := planner(t, net)
	u := net.Clients[0]
	cands := p.Candidates(u)
	if len(cands) != 1 {
		t.Fatalf("star should yield 1 candidate class, got %d", len(cands))
	}
	if cands[0].DS != 1 {
		t.Fatalf("hub meet depth %d, want 1", cands[0].DS)
	}
	// Deterministic tie-break: equal RTTs (all 4.0) → lowest node ID.
	wantPeer := net.Clients[1]
	for _, c := range net.Clients[1:] {
		if c < wantPeer {
			wantPeer = c
		}
	}
	if cands[0].Peer != wantPeer {
		t.Fatalf("tie-break picked %d, want %d", cands[0].Peer, wantPeer)
	}
}

func TestCandidatesExcludeSelfAndAreDescending(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		net := topology.MustGenerate(topology.DefaultConfig(80), rng.New(seed))
		p := planner(t, net)
		for _, u := range net.Clients {
			cands := p.Candidates(u)
			prev := int32(1 << 30)
			seen := map[graph.NodeID]bool{}
			for _, c := range cands {
				if c.Peer == u {
					t.Fatal("candidate list contains the client itself")
				}
				if c.DS >= prev {
					t.Fatalf("candidates not strictly descending: %d then %d", prev, c.DS)
				}
				prev = c.DS
				if seen[c.Meet] {
					t.Fatal("duplicate equivalence class in candidates")
				}
				seen[c.Meet] = true
				if c.DS != p.Tree.Depth[c.Meet] {
					t.Fatal("DS inconsistent with meet depth")
				}
				if c.DS >= p.Tree.Depth[u] {
					t.Fatalf("meet depth %d not below client depth %d", c.DS, p.Tree.Depth[u])
				}
			}
		}
	}
}

func TestCandidatesPanicsOnNonClient(t *testing.T) {
	net, _ := topology.Star(2, 1)
	p := planner(t, net)
	defer func() {
		if recover() == nil {
			t.Fatal("Candidates(source) did not panic")
		}
	}()
	p.Candidates(net.Source)
}

func TestStrategyForChainPrefersUpstreamPeer(t *testing.T) {
	// The source sits behind a 20 ms link while two peers are 3 ms away:
	// the optimal strategy must try the deep-meeting nearby peer before
	// falling back to the distant source.
	b := topology.NewBuilder()
	s := b.Source()
	r1, r2, r3 := b.Router(), b.Router(), b.Router()
	b.TreeLink(s, r1, 20)
	b.TreeLink(r1, r2, 1)
	b.TreeLink(r2, r3, 1)
	tail := b.Client()
	b.TreeLink(r3, tail, 1)
	p2 := b.Client() // meets tail at r2 (DS=2)
	b.TreeLink(r2, p2, 1)
	p1 := b.Client() // meets tail at r1 (DS=1)
	b.TreeLink(r1, p1, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := planner(t, net)
	st := p.StrategyFor(tail)
	if len(st.Peers) == 0 {
		t.Fatal("distant-source topology should use at least one peer")
	}
	// Hand computation (dsU=4, srcRTT=46, β=3):
	//   [p2]      : ½·6+½·18 + ½·46            = 35
	//   [p1]      : ¾·8+¼·24 + ¼·46            = 23.5   ← optimum
	//   [p2,p1]   : 12 + ½(½·8+½·24) + ¼·46    = 31.5
	// p1's low failure probability (DS 1 vs 2) beats p2's lower RTT.
	if st.Peers[0].Peer != p1 || len(st.Peers) != 1 {
		t.Fatalf("strategy %v, want single peer %d", st.Peers, p1)
	}
	if math.Abs(st.ExpectedDelay-23.5) > 1e-9 {
		t.Fatalf("expected delay %v, want 23.5", st.ExpectedDelay)
	}
	_ = p2
	// The strategy's stored delay must equal its independent evaluation.
	if math.Abs(st.ExpectedDelay-st.Evaluate()) > 1e-9 {
		t.Fatalf("stored delay %v != evaluated %v", st.ExpectedDelay, st.Evaluate())
	}
	// And it must beat going straight to the source.
	if st.ExpectedDelay >= st.SourceRTT {
		t.Fatalf("strategy (%v) no better than direct source (%v)",
			st.ExpectedDelay, st.SourceRTT)
	}
}

func TestStrategyNoCandidates(t *testing.T) {
	// Single client: no peers exist; strategy must be the direct source.
	b := topology.NewBuilder()
	s := b.Source()
	r := b.Router()
	c := b.Client()
	b.TreeLink(s, r, 2)
	b.TreeLink(r, c, 2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := planner(t, net)
	st := p.StrategyFor(c)
	if len(st.Peers) != 0 {
		t.Fatalf("lone client got peers: %v", st.Peers)
	}
	if math.Abs(st.ExpectedDelay-8) > 1e-9 { // RTT = 2·(2+2)
		t.Fatalf("lone client delay %v, want 8", st.ExpectedDelay)
	}
}

func TestRestrictedStrategyAvoidsDirectSource(t *testing.T) {
	net, err := topology.Chain(3, 1.0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := planner(t, net)
	p.AllowDirectSource = false
	tail := net.Clients[0]
	st := p.StrategyFor(tail)
	if len(st.Peers) == 0 {
		t.Fatal("restricted strategy should pass through a peer")
	}
	// Restricted optimum can only be ≥ the unrestricted one.
	p2 := planner(t, net)
	un := p2.StrategyFor(tail)
	if st.ExpectedDelay < un.ExpectedDelay-1e-9 {
		t.Fatal("restricted strategy beat the unrestricted optimum")
	}
}

func TestRestrictedFallsBackWhenNoCandidates(t *testing.T) {
	b := topology.NewBuilder()
	s := b.Source()
	r := b.Router()
	c := b.Client()
	b.TreeLink(s, r, 1)
	b.TreeLink(r, c, 1)
	net, _ := b.Build()
	p := planner(t, net)
	p.AllowDirectSource = false
	st := p.StrategyFor(c)
	if len(st.Peers) != 0 || st.ExpectedDelay != st.SourceRTT {
		t.Fatalf("restricted lone client should fall back to source: %+v", st)
	}
}

func TestAllCoversEveryClient(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(60), rng.New(4))
	p := planner(t, net)
	all := p.PlanAll()
	if len(all) != len(net.Clients) {
		t.Fatalf("All() returned %d strategies for %d clients", len(all), len(net.Clients))
	}
	for _, u := range net.Clients {
		st, ok := all[u]
		if !ok || st.Client != u {
			t.Fatalf("missing/mislabelled strategy for %d", u)
		}
	}
}

func TestStrategyString(t *testing.T) {
	net, _ := topology.Star(3, 1)
	p := planner(t, net)
	s := p.StrategyFor(net.Clients[0]).String()
	if len(s) == 0 {
		t.Fatal("empty strategy string")
	}
}

func TestDefaultTimeoutPolicyApplied(t *testing.T) {
	net, _ := topology.Star(3, 1)
	tr := mtree.MustBuild(net)
	p := &Planner{Tree: tr, Routes: route.Build(net), AllowDirectSource: true} // nil Timeout
	cands := p.Candidates(net.Clients[0])
	for _, c := range cands {
		if math.Abs(c.Timeout-3*c.RTT) > 1e-9 {
			t.Fatalf("default timeout %v, want 3·rtt=%v", c.Timeout, 3*c.RTT)
		}
	}
}

func TestFixedTimeoutPropagates(t *testing.T) {
	net, _ := topology.Chain(3, 1, []int{1})
	tr := mtree.MustBuild(net)
	p := &Planner{Tree: tr, Routes: route.Build(net), Timeout: FixedTimeout(500), AllowDirectSource: true}
	st := p.StrategyFor(net.Clients[0])
	for _, c := range st.Peers {
		if c.Timeout != 500 {
			t.Fatalf("fixed timeout not applied: %v", c.Timeout)
		}
	}
	if st.SourceTimeout != 500 {
		t.Fatal("fixed timeout not applied to source attempt")
	}
}
