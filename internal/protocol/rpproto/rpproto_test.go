package rpproto

import (
	"math"
	"reflect"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

// oneLossSession builds a session where exactly the given tree link drops
// the single data packet and is then restored, so recovery traffic is
// lossless and latencies are deterministic.
func oneLossSession(t *testing.T, topo *topology.Network, lossLink graph.EdgeID, e protocol.Engine) *protocol.Session {
	t.Helper()
	topo.Loss[lossLink] = 1
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10}, 42)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(0.5, func() { topo.Loss[lossLink] = 0 })
	return s
}

func TestRecoverFromFirstPeer(t *testing.T) {
	// Distant source, near peers: tail loses only on its access link, so
	// every peer holds the packet and the first strategy entry repairs.
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2, r3 := b.Router(), b.Router(), b.Router()
	b.TreeLink(src, r1, 20)
	b.TreeLink(r1, r2, 1)
	b.TreeLink(r2, r3, 1)
	tail := b.Client()
	tailLink := b.TreeLink(r3, tail, 1)
	p2 := b.Client()
	b.TreeLink(r2, p2, 1)
	p1 := b.Client()
	b.TreeLink(r1, p1, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{})
	s := oneLossSession(t, topo, tailLink, e)
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// The repair must come from the strategy's first peer at exactly its
	// RTT (deterministic delays, lossless recovery path).
	st := e.Strategy(tail)
	if len(st.Peers) == 0 {
		t.Fatal("strategy has no peers despite distant source")
	}
	if math.Abs(res.Stats.Latency.Mean()-st.Peers[0].RTT) > 1e-6 {
		t.Fatalf("latency %v, want first-peer RTT %v",
			res.Stats.Latency.Mean(), st.Peers[0].RTT)
	}
	// Bandwidth: request path + repair path between tail and that peer.
	hops := int64(2 * s.Routes.Hops(tail, st.Peers[0].Peer))
	if res.Hops.Recovery() != hops {
		t.Fatalf("recovery hops %d, want %d", res.Hops.Recovery(), hops)
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("pending recoveries left behind")
	}
}

func TestTimeoutFallsThroughToSource(t *testing.T) {
	// Both clients lose (loss above them): each one's peer attempt times
	// out silently, then the source repairs.
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2 := b.Router(), b.Router()
	b.TreeLink(src, r1, 5)
	sharedLink := b.TreeLink(r1, r2, 1)
	c1 := b.Client()
	b.TreeLink(r2, c1, 1)
	c2 := b.Client()
	b.TreeLink(r2, c2, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{})
	s := oneLossSession(t, topo, sharedLink, e)
	res := s.Run()
	if res.Stats.Losses != 2 || res.Stats.Recoveries != 2 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// For each client: its peer list (the sibling, competitive class at
	// r2) times out, then the source answers. Latency = t0 + srcRTT if
	// the plan includes the sibling, else srcRTT.
	for _, c := range topo.Clients {
		st := e.Strategy(c)
		want := st.SourceRTT
		for _, p := range st.Peers {
			want += p.Timeout
		}
		_ = c
		// Both clients are symmetric; mean should equal the common value.
		if math.Abs(res.Stats.Latency.Mean()-want) > 1e-6 {
			t.Fatalf("latency %v, want %v (strategy %v)",
				res.Stats.Latency.Mean(), want, st)
		}
	}
}

func TestNakRepliesCutLatency(t *testing.T) {
	// Distant source (50 ms) so the sibling peer enters the strategy;
	// the shared loss makes that first attempt fail.
	build := func() (*topology.Network, graph.EdgeID) {
		b := topology.NewBuilder()
		src := b.Source()
		r1, r2 := b.Router(), b.Router()
		b.TreeLink(src, r1, 50)
		shared := b.TreeLink(r1, r2, 1)
		c1 := b.Client()
		b.TreeLink(r2, c1, 1)
		c2 := b.Client()
		b.TreeLink(r2, c2, 1)
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo, shared
	}
	topo1, link1 := build()
	plain := New(Options{})
	s1 := oneLossSession(t, topo1, link1, plain)
	r1 := s1.Run()

	topo2, link2 := build()
	nak := New(Options{NakReplies: true})
	s2 := oneLossSession(t, topo2, link2, nak)
	r2 := s2.Run()

	if r2.Stats.Recoveries != r1.Stats.Recoveries {
		t.Fatalf("recovery counts differ: %d vs %d", r2.Stats.Recoveries, r1.Stats.Recoveries)
	}
	if r2.Stats.Latency.Mean() >= r1.Stats.Latency.Mean() {
		t.Fatalf("NAK replies did not cut latency: %v vs %v",
			r2.Stats.Latency.Mean(), r1.Stats.Latency.Mean())
	}
}

func TestSubgroupRepairCoversSubtree(t *testing.T) {
	// Loss above a subtree with two clients: with SubgroupRepair the
	// source's single multicast repairs both, so repair hops are shared.
	build := func(sub bool) *protocol.Result {
		b := topology.NewBuilder()
		src := b.Source()
		r1, r2 := b.Router(), b.Router()
		b.TreeLink(src, r1, 50)
		shared := b.TreeLink(r1, r2, 1)
		c1 := b.Client()
		b.TreeLink(r2, c1, 1)
		c2 := b.Client()
		b.TreeLink(r2, c2, 1)
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{SubgroupRepair: sub})
		s := oneLossSession(t, topo, shared, e)
		return s.Run()
	}
	plain := build(false)
	subgrouped := build(true)
	if subgrouped.Stats.Recoveries+subgrouped.Stats.PreDetection != 2 ||
		subgrouped.Stats.Unrecovered != 0 {
		t.Fatalf("subgroup run stats %+v", subgrouped.Stats)
	}
	// Subgroup repair multicast from the source serves both clients with
	// one descent; plain mode sends two unicast repairs. Repair hops must
	// strictly shrink.
	if subgrouped.Hops.Repair >= plain.Hops.Repair {
		t.Fatalf("subgroup repair hops %d not below plain %d",
			subgrouped.Hops.Repair, plain.Hops.Repair)
	}
}

func TestRandomLossFullRecovery(t *testing.T) {
	for _, p := range []float64{0.05, 0.2} {
		topo, err := topology.Standard(60, p, 11)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{})
		s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 80, Interval: 30}, 13)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !res.Complete {
			t.Fatalf("p=%v: run incomplete", p)
		}
		if res.Stats.Losses == 0 {
			t.Fatalf("p=%v: no losses", p)
		}
		if res.Stats.Unrecovered != 0 {
			t.Fatalf("p=%v: %d unrecovered losses", p, res.Stats.Unrecovered)
		}
		if e.PendingRecoveries() != 0 {
			t.Fatalf("p=%v: dangling recovery state", p)
		}
	}
}

func TestRestrictedStrategiesStillRecover(t *testing.T) {
	topo, err := topology.Standard(40, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Restricted: true})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 40, Interval: 30}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Unrecovered != 0 || !res.Complete {
		t.Fatalf("restricted run failed: %+v", res.Stats)
	}
}

func TestLoneClientGoesToSource(t *testing.T) {
	b := topology.NewBuilder()
	src := b.Source()
	r := b.Router()
	b.TreeLink(src, r, 2)
	c := b.Client()
	link := b.TreeLink(r, c, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	s := oneLossSession(t, topo, link, e)
	res := s.Run()
	if res.Stats.Recoveries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if math.Abs(res.Stats.Latency.Mean()-8) > 1e-6 { // srcRTT = 2·4
		t.Fatalf("latency %v, want 8", res.Stats.Latency.Mean())
	}
}

func TestRepairLossTriggersRetry(t *testing.T) {
	// The client's access link drops data AND stays lossy only for the
	// uplink direction simulation is symmetric, so emulate with full loss
	// for a while: the first source repair dies, the retry succeeds after
	// the link heals.
	b := topology.NewBuilder()
	src := b.Source()
	r := b.Router()
	b.TreeLink(src, r, 2)
	c := b.Client()
	link := b.TreeLink(r, c, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Loss[link] = 1
	e := New(Options{})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10, LossyRecovery: true}, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Heal the link only after the first repair attempt has died:
	// detection ≈ 4 ms, request reaches source ≈ +4 ms but dies crossing
	// the lossy access link... the request itself crosses the lossy link
	// first, so it dies immediately; heal at 20 ms (after ~1 timeout) and
	// let the retry complete.
	s.Eng.Schedule(20, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("retry did not recover: %+v", res.Stats)
	}
	// Latency must exceed one clean source round trip (a retry happened).
	if res.Stats.Latency.Mean() <= 8 {
		t.Fatalf("latency %v suggests no retry occurred", res.Stats.Latency.Mean())
	}
	if res.Drops.Recovery() == 0 {
		t.Fatal("no recovery packet was dropped?")
	}
}

func TestSubgroupSuppressionSkipsBurstRequests(t *testing.T) {
	// Two clients under one subtree lose the same packet, time out on each
	// other and fall back to the source at the same instant: the source
	// multicasts once to the subgroup and suppresses the second request,
	// which that one multicast already serves.
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2 := b.Router(), b.Router()
	b.TreeLink(src, r1, 50)
	shared := b.TreeLink(r1, r2, 1)
	c1 := b.Client()
	b.TreeLink(r2, c1, 1)
	c2 := b.Client()
	b.TreeLink(r2, c2, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{SubgroupRepair: true})
	s := oneLossSession(t, topo, shared, e)
	res := s.Run()
	if res.Stats.Recoveries+res.Stats.PreDetection != 2 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Both clients asked each other, then the source.
	asked := int64(2 * (s.Routes.Hops(c1, c2) + s.Routes.Hops(c1, src)))
	if res.Hops.Request != asked {
		t.Fatalf("request hops %d, want %d (both clients at the source)", res.Hops.Request, asked)
	}
	// The subgroup root is r1, so one multicast crosses every tree link
	// once; a second one would double the count.
	if links := int64(s.Tree.NumTreeEdges()); res.Hops.Repair != links {
		t.Fatalf("repair hops %d, want %d (one subgroup multicast)", res.Hops.Repair, links)
	}
}

// recoverLog records the trace's completed recoveries.
type recoverLog []trace.Event

func (l *recoverLog) Emit(ev trace.Event) {
	if ev.Kind == trace.Recover {
		*l = append(*l, ev)
	}
}

func TestHoldFreshRequestsServesDeepPeer(t *testing.T) {
	// The peer hangs below a long private chain, so the fresh packet
	// reaches it 12 ms after the requester's loss; a direct off-tree link
	// carries the request there first. The peer holds the request until
	// its own copy lands and then answers. Without holding it would stay
	// silent and the requester would time out on it and go to the source.
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2 := b.Router(), b.Router()
	b.TreeLink(src, r1, 30)
	b.TreeLink(r1, r2, 1)
	u := b.Client()
	uLink := b.TreeLink(r2, u, 1)
	prev := r2
	for i := 0; i < 6; i++ {
		rr := b.Router()
		b.TreeLink(prev, rr, 2)
		prev = rr
	}
	peer := b.Client()
	b.TreeLink(prev, peer, 1)
	b.Link(u, peer, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	s := oneLossSession(t, topo, uLink, e)
	if st := e.Strategy(u); len(st.Peers) == 0 || st.Peers[0].Peer != peer {
		t.Fatalf("planner did not rank the deep peer first (strategy %v)", st)
	}
	var log recoverLog
	s.Trace = &log
	res := s.Run()
	if res.Stats.Recoveries != 1 || len(log) != 1 {
		t.Fatalf("stats %+v, %d recover events", res.Stats, len(log))
	}
	if got := graph.NodeID(log[0].Peer); got != peer {
		t.Fatalf("repair came from %d, want the held peer %d", got, peer)
	}
}

func TestSubgroupRepairShallowClient(t *testing.T) {
	// A client attached directly to the source (depth 1): the subgroup
	// root degenerates to the client itself and the repair still lands.
	b := topology.NewBuilder()
	src := b.Source()
	c := b.Client()
	link := b.TreeLink(src, c, 3)
	// A second client so the group is non-trivial.
	r := b.Router()
	b.TreeLink(src, r, 1)
	c2 := b.Client()
	b.TreeLink(r, c2, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{SubgroupRepair: true})
	s := oneLossSession(t, topo, link, e)
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

// TestStrategyIndexesAttachPlans pins the attach-time plan layout: every
// client's plan equals the planner's own, anything else (the source,
// routers, IDs outside the network) reads nil, and a shard clone shares
// the parent's plans instead of replanning.
func TestStrategyIndexesAttachPlans(t *testing.T) {
	topo := topology.MustGenerate(topology.DefaultConfig(40), rng.New(3))
	e := New(Options{})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPlanner(s.Tree, s.Routes)
	for _, c := range topo.Clients {
		if want := p.StrategyFor(c); !reflect.DeepEqual(e.Strategy(c), want) {
			t.Fatalf("client %d: attach plan %v, planner %v", c, e.Strategy(c), want)
		}
	}
	for _, v := range []graph.NodeID{topo.Source, s.Tree.Parent[topo.Clients[0]], -1, graph.NodeID(1 << 20)} {
		if st := e.Strategy(v); st != nil {
			t.Fatalf("Strategy(%d) = %v, want nil", v, st)
		}
	}
	clone := e.CloneForShard().(*Engine)
	clone.Attach(s)
	for _, c := range topo.Clients {
		if clone.Strategy(c) != e.Strategy(c) {
			t.Fatalf("client %d: shard clone replanned instead of sharing", c)
		}
	}
}
