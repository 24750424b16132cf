package lsr

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

func TestNoiselessMatchesOracle(t *testing.T) {
	// With zero measurement noise the converged link-state estimates must
	// equal the omniscient oracle's, pair by pair.
	net := topology.MustGenerate(topology.DefaultConfig(80), rng.New(4))
	oracle := route.Build(net)
	lsrRt, st := Converge(net, Config{Noise: 0}, rng.New(5))
	if st.Messages == 0 || st.ConvergenceMs <= 0 || st.LSAs != net.NumNodes() {
		t.Fatalf("degenerate stats %+v", st)
	}
	hosts := append([]graph.NodeID{net.Source}, net.Clients...)
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			o := oracle.OneWayDelay(a, b)
			l := lsrRt.OneWayDelay(a, b)
			if math.Abs(o-l) > 1e-9 {
				t.Fatalf("delay %d→%d: oracle %v lsr %v", a, b, o, l)
			}
			// Summation order differs between the two Dijkstra
			// directions, so compare with a float tolerance.
			if math.Abs(oracle.RTT(a, b)-lsrRt.RTT(a, b)) > 1e-9 {
				t.Fatalf("rtt mismatch %d↔%d", a, b)
			}
		}
	}
}

func TestNextHopWalksConverge(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(60), rng.New(7))
	rt, _ := Converge(net, Config{Noise: 0.3}, rng.New(8))
	for _, c := range net.Clients {
		// Walk from every client to the source under noisy routing.
		cur := c
		steps := 0
		for cur != net.Source {
			next, link := rt.NextHop(cur, net.Source)
			if next == graph.None || link == graph.NoEdge {
				t.Fatalf("dead end at %d toward source", cur)
			}
			cur = next
			steps++
			if steps > net.NumNodes() {
				t.Fatal("routing loop under noise")
			}
		}
		// Path/Hops agree with the walk.
		if h := rt.Hops(c, net.Source); h != steps {
			t.Fatalf("Hops %d != walked %d", h, steps)
		}
	}
}

func TestNoiseBoundsEstimates(t *testing.T) {
	// Each directed link cost is within ±noise of truth, so any path
	// estimate is within ±noise of some true path cost, and in particular
	// within ±noise of the oracle's optimum from below.
	const noise = 0.2
	net := topology.MustGenerate(topology.DefaultConfig(50), rng.New(9))
	oracle := route.Build(net)
	rt, _ := Converge(net, Config{Noise: noise}, rng.New(10))
	for _, c := range net.Clients {
		est := rt.OneWayDelay(c, net.Source)
		truth := oracle.OneWayDelay(c, net.Source)
		if est < truth*(1-noise)-1e-9 {
			t.Fatalf("estimate %v below lower bound %v", est, truth*(1-noise))
		}
		// The estimated-optimal path's estimated cost can exceed the true
		// optimum by at most (1+noise)/(1−noise) in the worst case.
		if est > truth*(1+noise)/(1-noise)+1e-9 {
			t.Fatalf("estimate %v above bound for truth %v", est, truth)
		}
	}
}

func TestAsymmetricCostsUnderNoise(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(40), rng.New(11))
	rt, _ := Converge(net, Config{Noise: 0.3}, rng.New(12))
	asym := false
	for _, c := range net.Clients {
		if rt.OneWayDelay(c, net.Source) != rt.OneWayDelay(net.Source, c) {
			asym = true
			break
		}
	}
	if !asym {
		t.Fatal("independent endpoint measurements produced fully symmetric estimates")
	}
}

func TestFloodingCostScalesWithLinks(t *testing.T) {
	// Flooding sends each of the N LSAs at most twice per link (once per
	// direction) plus the originations.
	net := topology.MustGenerate(topology.DefaultConfig(50), rng.New(13))
	_, st := Converge(net, Config{}, rng.New(14))
	n := int64(net.NumNodes())
	links := int64(net.NumLinks())
	upper := n * 2 * links
	if st.Messages > upper {
		t.Fatalf("flood messages %d exceed bound %d", st.Messages, upper)
	}
	if st.Messages < n*links/4 {
		t.Fatalf("flood messages %d implausibly low", st.Messages)
	}
}

func TestConvergeDeterministic(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(40), rng.New(15))
	a, sa := Converge(net, Config{Noise: 0.2}, rng.New(16))
	b, sb := Converge(net, Config{Noise: 0.2}, rng.New(16))
	if *sa != *sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	for _, c := range net.Clients {
		if a.OneWayDelay(c, net.Source) != b.OneWayDelay(c, net.Source) {
			t.Fatal("estimates diverged under identical seeds")
		}
	}
}

func TestSessionRunsOverLinkStateRouting(t *testing.T) {
	// End to end: RP over noisy link-state routing still recovers every
	// loss (estimates are wrong but consistent; retries absorb the rest).
	net, err := topology.Standard(60, 0.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := Converge(net, Config{Noise: 0.25}, rng.New(18))
	e := rpproto.New(rpproto.Options{})
	tree, err := mtree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	s, err := protocol.NewSessionPrebuilt(net, tree, e,
		protocol.Config{Packets: 40, Interval: 40}, 19, rt)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete || res.Stats.Unrecovered != 0 || res.Stats.Losses == 0 {
		t.Fatalf("LSR-backed run failed: %+v complete=%v", res.Stats, res.Complete)
	}
}

func BenchmarkConverge200(b *testing.B) {
	net := topology.MustGenerate(topology.DefaultConfig(200), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Converge(net, Config{}, rng.New(2))
	}
}

func TestPathAndPrepareEdgeCases(t *testing.T) {
	net, err := topology.Standard(30, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := Converge(net, Config{}, rng.New(22))
	c := net.Clients[0]
	// Path to self.
	p := rt.Path(c, c)
	if len(p) != 1 || p[0] != c {
		t.Fatalf("self path %v", p)
	}
	if rt.Hops(c, c) != 0 {
		t.Fatal("self hops not 0")
	}
	// Prepare is idempotent.
	rt.Prepare(c)
	rt.Prepare(c)
	// NextHop at destination.
	if n, e := rt.NextHop(c, c); n != graph.None || e != graph.NoEdge {
		t.Fatal("NextHop(v,v) wrong")
	}
	// Path symmetry in hop count under zero noise.
	s := net.Source
	if rt.Hops(c, s) != rt.Hops(s, c) {
		t.Fatal("asymmetric hop counts at zero noise")
	}
}
