package ack

import (
	"math"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

func TestSingleLossRetransmittedBySource(t *testing.T) {
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(0.5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Latency: the round timer fires at 1.5·RTT(=9) after send; detection
	// at ~3; retransmission reaches c at 9+3=12 → latency ≈ 9.
	if math.Abs(res.Stats.Latency.Mean()-9) > 0.2 {
		t.Fatalf("latency %v, want ≈9", res.Stats.Latency.Mean())
	}
}

func TestAckImplosionVisibleInRequestHops(t *testing.T) {
	// Even with ZERO loss, every client ACKs every packet: request hops =
	// packets × Σ path(c→S).
	topo, err := topology.Star(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 10, Interval: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Losses != 0 {
		t.Fatalf("unexpected losses %d", res.Stats.Losses)
	}
	// 6 clients × 2 hops × 10 packets = 120 ACK hops.
	if res.Hops.Request != 120 {
		t.Fatalf("ACK hops %d, want 120", res.Hops.Request)
	}
	if res.Hops.Repair != 0 {
		t.Fatalf("lossless run retransmitted: %d", res.Hops.Repair)
	}
}

func TestRandomLossFullRecovery(t *testing.T) {
	for _, p := range []float64{0.05, 0.2} {
		topo, err := topology.Standard(40, p, 71)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 40, Interval: 40}, 73)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !res.Complete || res.Stats.Losses == 0 || res.Stats.Unrecovered != 0 {
			t.Fatalf("p=%v: %+v complete=%v", p, res.Stats, res.Complete)
		}
	}
}

func TestLostAckTriggersRedundantRetransmission(t *testing.T) {
	// With lossy control, a lost ACK makes the source retransmit to a
	// client that already has the packet — a duplicate delivery.
	topo, err := topology.Chain(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo.SetUniformLoss(0.4)
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{
		Packets: 60, Interval: 20, LossyRecovery: true,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("unrecovered %d", res.Stats.Unrecovered)
	}
	if res.Stats.Duplicates == 0 {
		t.Fatal("no duplicate retransmissions despite lossy ACKs")
	}
}
