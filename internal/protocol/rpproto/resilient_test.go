package rpproto

import (
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// deepTailTopo builds the distant-source topology the strategy tests use:
// tail behind r3 with two candidate peers (p2 near, p1 far) and a 20 ms
// haul to the source, so peer recovery is strongly preferred.
func deepTailTopo(t *testing.T) (*topology.Network, graph.NodeID) {
	t.Helper()
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2, r3 := b.Router(), b.Router(), b.Router()
	b.TreeLink(src, r1, 20)
	b.TreeLink(r1, r2, 1)
	b.TreeLink(r2, r3, 1)
	tail := b.Client()
	b.TreeLink(r3, tail, 1)
	p2 := b.Client()
	b.TreeLink(r2, p2, 1)
	p1 := b.Client()
	b.TreeLink(r1, p1, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, tail
}

// firstPeerOf runs a throwaway attach on an identical topology to learn
// which peer the planner ranks first for the client.
func firstPeerOf(t *testing.T, mk func(t *testing.T) (*topology.Network, graph.NodeID)) graph.NodeID {
	t.Helper()
	topo, c := mk(t)
	e := New(Options{})
	if _, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10}, 1); err != nil {
		t.Fatal(err)
	}
	st := e.Strategy(c)
	if len(st.Peers) == 0 {
		t.Fatal("planner produced no peers for the deep tail")
	}
	return st.Peers[0].Peer
}

// TestDeadPeerEvictedAndRecoveryContinues: the tail's preferred peer
// crashes permanently before traffic starts and the tail loses every data
// packet. The resilience layer must burn its retry budget, grow suspicion
// into a death declaration, evict the peer from the roster, and keep
// recovering every loss from the remaining peers/source — the liveness
// invariant under a silent peer failure.
func TestDeadPeerEvictedAndRecoveryContinues(t *testing.T) {
	victim := firstPeerOf(t, deepTailTopo)

	topo, tail := deepTailTopo(t)
	topo.Loss[mtree.MustBuild(topo).ParentLink[tail]] = 1 // every data packet to tail lost

	e := New(Options{Resilient: true})
	cfg := protocol.Config{Packets: 12, Interval: 10, Fault: (&fault.Schedule{}).CrashHost(0, victim)}
	s, err := protocol.NewSession(topo, e, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatal("incomplete run")
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%d unrecovered with a dead first peer", res.Stats.Unrecovered)
	}
	if !e.dead[victim] {
		t.Fatalf("peer %d never declared dead (suspicion %v)", victim, e.suspectCount)
	}
	if e.roster.Active(victim) {
		t.Fatal("declared-dead peer still active in the roster")
	}
	// Eviction replans the survivors: the tail's strategy must no longer
	// route through the victim.
	for _, p := range e.Strategy(tail).Peers {
		if p.Peer == victim {
			t.Fatal("evicted peer still in the tail's strategy")
		}
	}
}

// TestBaselineRPWedgesWhereResilientRecovers documents what the hardening
// buys: with recovery traffic lossy and the preferred peer dead, baseline
// RP's single fixed plan still works here only because its plan ends at
// the source — but it pays the full timeout chain on every loss, while the
// resilient engine learns to skip the dead peer. Assert both liveness and
// that the resilient run is strictly faster on average.
func TestBaselineRPWedgesWhereResilientRecovers(t *testing.T) {
	victim := firstPeerOf(t, deepTailTopo)
	run := func(resilient bool) *protocol.Result {
		topo, tail := deepTailTopo(t)
		topo.Loss[mtree.MustBuild(topo).ParentLink[tail]] = 1
		cfg := protocol.Config{Packets: 12, Interval: 10, Fault: (&fault.Schedule{}).CrashHost(0, victim)}
		s, err := protocol.NewSession(topo, New(Options{Resilient: resilient}), cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	base := run(false)
	hard := run(true)
	if base.Stats.Unrecovered != 0 || hard.Stats.Unrecovered != 0 {
		t.Fatalf("liveness violated: base %d, resilient %d unrecovered",
			base.Stats.Unrecovered, hard.Stats.Unrecovered)
	}
	if hard.AvgLatency() >= base.AvgLatency() {
		t.Fatalf("resilient latency %v not below baseline %v with a dead peer",
			hard.AvgLatency(), base.AvgLatency())
	}
}
