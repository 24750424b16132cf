package sim

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/topology"
)

func TestQueueSerialisesBurst(t *testing.T) {
	// Two packets injected at the same instant on the same path: the
	// second must trail the first by PacketTime per shared link.
	topo, _ := topology.Chain(2, 1, nil) // S—r1—r2—C, 3 links of 1 ms
	r := newRig(t, topo, 1)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	c := topo.Clients[0]
	arrivals := r.arrivalsAt(c)
	r.net.Unicast(c, Packet{Kind: Request, From: topo.Source, Seq: 0})
	r.net.Unicast(c, Packet{Kind: Request, From: topo.Source, Seq: 1})
	r.eng.Run(0)
	if len(*arrivals) != 2 {
		t.Fatalf("arrivals %d", len(*arrivals))
	}
	// First: 3 hops, each 0.5 service + 1 prop = 4.5.
	if math.Abs((*arrivals)[0]-4.5) > 1e-9 {
		t.Fatalf("first arrival %v, want 4.5", (*arrivals)[0])
	}
	// Second: pipeline behind the first — finishes one service time later.
	if math.Abs((*arrivals)[1]-5.0) > 1e-9 {
		t.Fatalf("second arrival %v, want 5.0", (*arrivals)[1])
	}
}

func TestQueueDirectionsIndependent(t *testing.T) {
	// Opposite directions of one link are independent servers.
	topo, _ := topology.Chain(1, 1, nil) // S—r1—C
	r := newRig(t, topo, 2)
	r.net.Queue = NewQueueModel(1, topo.G.NumEdges())
	c := topo.Clients[0]
	var toC, toS []float64
	r.net.Deliver = func(node graph.NodeID, _ Packet) {
		switch node {
		case c:
			toC = append(toC, r.eng.Now())
		case topo.Source:
			toS = append(toS, r.eng.Now())
		}
	}
	r.net.Unicast(c, Packet{Kind: Request, From: topo.Source})
	r.net.Unicast(topo.Source, Packet{Kind: Request, From: c})
	r.eng.Run(0)
	// Each crosses 2 links: (1 service + 1 prop) × 2 = 4, no interference.
	if len(toC) != 1 || len(toS) != 1 {
		t.Fatalf("deliveries %d/%d", len(toC), len(toS))
	}
	if math.Abs(toC[0]-4) > 1e-9 || math.Abs(toS[0]-4) > 1e-9 {
		t.Fatalf("arrivals %v/%v, want 4/4 (independent directions)", toC[0], toS[0])
	}
}

func TestQueueFloodSelfCongestion(t *testing.T) {
	// A star hub must serialise one multicast's copies onto each branch —
	// but distinct branches are distinct servers, so a single flood is
	// NOT delayed; two back-to-back floods are.
	topo, _ := topology.Star(3, 1)
	r := newRig(t, topo, 3)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	counts := map[graph.NodeID][]float64{}
	r.net.Deliver = func(c graph.NodeID, _ Packet) { counts[c] = append(counts[c], r.eng.Now()) }
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source, Seq: 0})
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source, Seq: 1})
	r.eng.Run(0)
	for c, at := range counts {
		if len(at) != 2 {
			t.Fatalf("client %d got %d packets", c, len(at))
		}
		// Packet 0: 2 hops × (0.5+1) = 3. Packet 1 queues behind it on
		// both links: +0.5 per link... the source link serialises (+0.5),
		// then the branch link serialises again, but propagation overlaps:
		// arrival = 3 + 0.5·? — just assert strict ordering and ≥ 0.5 gap.
		if at[1] < at[0]+0.5-1e-9 {
			t.Fatalf("client %d: second flood not serialised: %v then %v", c, at[0], at[1])
		}
	}
}

func TestQueueBacklogVisibility(t *testing.T) {
	q := NewQueueModel(2, 1)
	dep1 := q.departAfter(0, true, 10)
	if dep1 != 12 {
		t.Fatalf("first departure %v, want 12", dep1)
	}
	dep2 := q.departAfter(0, true, 10)
	if dep2 != 14 {
		t.Fatalf("second departure %v, want 14", dep2)
	}
	if b := q.Backlog(0, true, 10); math.Abs(b-4) > 1e-9 {
		t.Fatalf("backlog %v, want 4", b)
	}
	if b := q.Backlog(0, false, 10); b != 0 {
		t.Fatalf("reverse direction backlog %v, want 0", b)
	}
	if b := q.Backlog(0, true, 20); b != 0 {
		t.Fatalf("past-deadline backlog %v, want 0", b)
	}
}

func TestQueueModelPanicsOnBadServiceTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero packet time accepted")
		}
	}()
	NewQueueModel(0, 1)
}

func TestQueueLossStillApplies(t *testing.T) {
	topo, _ := topology.Chain(1, 1, nil)
	topo.SetUniformLoss(1)
	r := newRig(t, topo, 4)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	got := r.collect()
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source})
	r.eng.Run(0)
	if len(*got) != 0 {
		t.Fatal("lossy link delivered under queueing")
	}
	if r.net.Drops.Data == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestQueuedFloodTreeFromClient(t *testing.T) {
	// SRM-style flood from a member under queueing: everyone else still
	// gets it, with per-hop service added.
	topo, _ := topology.Binary(2, 1)
	r := newRig(t, topo, 5)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	got := r.collect()
	u := topo.Clients[0]
	r.net.FloodTree(Packet{Kind: Request, From: u, Seq: 1})
	r.eng.Run(0)
	// All other clients + the source.
	if len(*got) != len(topo.Clients) {
		t.Fatalf("deliveries %d, want %d", len(*got), len(topo.Clients))
	}
	for _, d := range *got {
		// Queued arrival is strictly later than the pure tree delay.
		if d.at <= r.tree.TreeDelay(u, d.node) {
			t.Fatalf("node %d arrival %v not delayed by service time", d.node, d.at)
		}
	}
}

func TestQueuedMulticastSubtree(t *testing.T) {
	topo, _ := topology.Chain(3, 1, []int{2})
	r := newRig(t, topo, 6)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	got := r.collect()
	tail := topo.Clients[0]
	side := topo.Clients[1]
	meet := r.tree.LCA(tail, side)
	r.net.MulticastSubtree(meet, Packet{Kind: Repair, From: side, Seq: 9})
	r.eng.Run(0)
	if len(*got) != 2 {
		t.Fatalf("deliveries %d, want 2 (side echo + tail)", len(*got))
	}
	for _, d := range *got {
		switch d.node {
		case side:
			// up 1 hop (1.5) + down 1 hop (1.5) = 3 with service.
			if math.Abs(d.at-3) > 1e-9 {
				t.Fatalf("side at %v, want 3", d.at)
			}
		case tail:
			// up 1.5 + down 2 hops (3) = 4.5.
			if math.Abs(d.at-4.5) > 1e-9 {
				t.Fatalf("tail at %v, want 4.5", d.at)
			}
		}
	}
}

func TestQueuedMulticastDescend(t *testing.T) {
	topo, _ := topology.Chain(3, 1, []int{2})
	r := newRig(t, topo, 7)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	got := r.collect()
	tail := topo.Clients[0]
	side := topo.Clients[1]
	sub := r.tree.LCA(tail, side) // r2
	r.net.MulticastDescend(sub, Packet{Kind: Repair, From: topo.Source, Seq: 2})
	r.eng.Run(0)
	// Subtree of r2 holds side and tail.
	if len(*got) != 2 {
		t.Fatalf("deliveries %d, want 2", len(*got))
	}
	// Descend S→r1→r2 (2 hops, 3.0) then side at +1.5, tail at +3.0.
	for _, d := range *got {
		switch d.node {
		case side:
			if math.Abs(d.at-4.5) > 1e-9 {
				t.Fatalf("side at %v, want 4.5", d.at)
			}
		case tail:
			if math.Abs(d.at-6.0) > 1e-9 {
				t.Fatalf("tail at %v, want 6.0", d.at)
			}
		}
	}
}

func TestQueuedAscendLossKillsRepair(t *testing.T) {
	topo, _ := topology.Chain(3, 1, []int{2})
	tree := mtree.MustBuild(topo)
	tail := topo.Clients[0]
	side := topo.Clients[1]
	// The side client's uplink drops everything.
	topo.Loss[tree.ParentLink[side]] = 1
	r := newRig(t, topo, 8)
	r.net.Queue = NewQueueModel(0.5, topo.G.NumEdges())
	r.net.ControlLoss = true
	got := r.collect()
	meet := r.tree.LCA(tail, side)
	r.net.MulticastSubtree(meet, Packet{Kind: Repair, From: side, Seq: 3})
	r.eng.Run(0)
	if len(*got) != 0 {
		t.Fatalf("repair should have died on the uplink, got %d deliveries", len(*got))
	}
}
