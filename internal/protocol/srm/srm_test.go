package srm

import (
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

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

func TestSingleLossRecoveredByFlood(t *testing.T) {
	topo, err := topology.Chain(3, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	tail := topo.Clients[0]
	e := New(Options{})
	s := oneLossSession(t, topo, tree.ParentLink[tail], e)
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// One NACK flood + one repair flood: both traverse every tree edge.
	edges := int64(tree.NumTreeEdges())
	if res.Hops.Request < edges || res.Hops.Repair < edges {
		t.Fatalf("floods did not cover the tree: %+v (edges %d)", res.Hops, edges)
	}
	// SRM latency includes the request suppression timer: strictly more
	// than the raw source RTT.
	srcRTT := 2 * s.Routes.OneWayDelay(tail, topo.Source)
	if res.Stats.Latency.Mean() <= srcRTT {
		t.Fatalf("latency %v suspiciously below timer floor %v",
			res.Stats.Latency.Mean(), srcRTT)
	}
	if e.PendingRequests() != 0 {
		t.Fatal("dangling request state")
	}
}

func TestRepairFloodHealsAllLosers(t *testing.T) {
	// Loss above a 6-client star subtree: one repair flood must heal all;
	// suppression must keep the NACK count well below the loser count.
	b := topology.NewBuilder()
	src := b.Source()
	r1, hub := b.Router(), b.Router()
	b.TreeLink(src, r1, 5)
	shared := b.TreeLink(r1, hub, 2)
	for i := 0; i < 6; i++ {
		b.TreeLink(hub, b.Client(), 1)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	e := New(Options{})
	s := oneLossSession(t, topo, shared, e)
	res := s.Run()
	healed := res.Stats.Recoveries + res.Stats.PreDetection
	if healed != 6 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Count NACK floods via hop totals: lossless recovery phase means
	// every flood costs exactly NumTreeEdges hops.
	edges := int64(tree.NumTreeEdges())
	nacks := res.Hops.Request / edges
	if nacks >= 6 {
		t.Fatalf("no request suppression: ~%d NACK floods for 6 losers", nacks)
	}
	if nacks < 1 {
		t.Fatal("no NACK at all?")
	}
}

func TestRepairSuppressionLimitsDuplicates(t *testing.T) {
	// Honest SRM, so only the distributed repair timers suppress: three
	// clients and the source hold the packet and hear the victim's NACK at
	// one-way delays 2, 11, 21 and 31 ms, drawing repair timers from
	// [d, 2d]. The nearest holder's repair flood reaches the others before
	// their timers can fire, and they cancel.
	b := topology.NewBuilder()
	src := b.Source()
	hub := b.Router()
	b.TreeLink(src, hub, 30)
	victim := b.Client()
	victimLink := b.TreeLink(hub, victim, 1)
	for _, d := range []float64{1, 10, 20} {
		b.TreeLink(hub, b.Client(), d)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Honest: true})
	s := oneLossSession(t, topo, victimLink, e)
	var tr trace.Counter
	s.Trace = &tr
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if n := tr.Count(trace.SendRequest); n != 1 {
		t.Fatalf("%d NACK floods, want 1", n)
	}
	if n := tr.Count(trace.SendRepair); n != 1 {
		t.Fatalf("%d repair floods from 4 holders, want 1", n)
	}
}

func TestRandomLossFullRecovery(t *testing.T) {
	for _, p := range []float64{0.05, 0.2} {
		topo, err := topology.Standard(40, p, 17)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{})
		s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 40, Interval: 60}, 19)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !res.Complete {
			t.Fatalf("p=%v: incomplete", p)
		}
		if res.Stats.Losses == 0 {
			t.Fatalf("p=%v: no losses", p)
		}
		if res.Stats.Unrecovered != 0 {
			t.Fatalf("p=%v: %d unrecovered", p, res.Stats.Unrecovered)
		}
	}
}

func TestControlLossFullRecovery(t *testing.T) {
	// Stochastic multi-packet run with recovery traffic itself subject to
	// link loss: the exponential re-request backoff must still recover
	// every loss.
	topo, err := topology.Standard(50, 0.15, 23)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	cfg := protocol.Config{Packets: 50, Interval: 50, LossyRecovery: true}
	s, err := protocol.NewSession(topo, e, cfg, 29)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatal("incomplete run")
	}
	if res.Stats.Losses == 0 {
		t.Fatal("no losses at p=0.15")
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%d unrecovered with lossy control traffic", res.Stats.Unrecovered)
	}
}

func TestLostRepairEventuallyRerequests(t *testing.T) {
	// Keep the victim's access link fully lossy well past the first
	// NACK/repair exchange; the exponential re-request must recover once
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
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10, LossyRecovery: true}, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(200, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Stats.Latency.Mean() < 200-10 {
		t.Fatalf("latency %v below healing time — impossible", res.Stats.Latency.Mean())
	}
}

func TestDuplicateRepairsCounted(t *testing.T) {
	// Whole-tree repair floods necessarily hit clients that already have
	// the packet; the session must count them as duplicates.
	topo, err := topology.Star(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	victim := topo.Clients[0]
	e := New(Options{})
	s := oneLossSession(t, topo, tree.ParentLink[victim], e)
	res := s.Run()
	if res.Stats.Duplicates == 0 {
		t.Fatal("flooded repair produced no duplicate deliveries")
	}
}

func TestAdaptiveTimersReduceDuplicateFloods(t *testing.T) {
	// Honest SRM (no idealised suppression) on a duplicate-prone star
	// topology, many packets: the adaptive variant must emit fewer repair
	// floods than the fixed-timer variant.
	run := func(adaptive bool) *protocol.Result {
		topo, err := topology.Standard(60, 0.1, 51)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Honest: true, Adaptive: adaptive}
		s, err := protocol.NewSession(topo, New(opt), protocol.Config{Packets: 60, Interval: 50}, 53)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	fixed := run(false)
	adaptive := run(true)
	if fixed.Stats.Unrecovered != 0 || adaptive.Stats.Unrecovered != 0 {
		t.Fatal("incomplete recovery")
	}
	if adaptive.Hops.Repair >= fixed.Hops.Repair {
		t.Fatalf("adaptive repair hops %d not below fixed %d",
			adaptive.Hops.Repair, fixed.Hops.Repair)
	}
}

func TestAdaptiveScaleBounded(t *testing.T) {
	e := New(Options{Adaptive: true})
	var host graph.NodeID = 3
	for i := 0; i < 50; i++ {
		e.adapt(e.repScale, host, 5) // duplicates every round
	}
	if s := e.scaleOf(e.repScale, host); s != maxAdapt {
		t.Fatalf("scale %v, want the bound %v", s, maxAdapt)
	}
	for i := 0; i < 500; i++ {
		e.adapt(e.repScale, host, 0) // clean rounds shrink it back
	}
	if s := e.scaleOf(e.repScale, host); s != 1 {
		t.Fatalf("scale %v did not return to 1", s)
	}
	// Non-adaptive engines always report 1.
	plain := New(Options{})
	plain.adapt(plain.repScale, host, 9)
	if plain.scaleOf(plain.repScale, host) != 1 {
		t.Fatal("non-adaptive engine scaled")
	}
}
