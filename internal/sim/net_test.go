package sim

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// rig bundles a ready simulation over a network.
type rig struct {
	eng  *Engine
	net  *Net
	topo *topology.Network
	tree *mtree.Tree
}

func newRig(t *testing.T, topo *topology.Network, seed uint64) *rig {
	t.Helper()
	tree, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	n := NewNet(eng, topo, tree, route.Build(topo), rng.New(seed))
	return &rig{eng: eng, net: n, topo: topo, tree: tree}
}

type delivery struct {
	node graph.NodeID
	at   float64
	pkt  Packet
}

// collect installs a receiver recording every delivery.
func (r *rig) collect() *[]delivery {
	var got []delivery
	r.net.Deliver = func(node graph.NodeID, pkt Packet) {
		got = append(got, delivery{node, r.eng.Now(), pkt})
	}
	return &got
}

// arrivalsAt installs a receiver recording the arrival times of deliveries
// to one node.
func (r *rig) arrivalsAt(node graph.NodeID) *[]float64 {
	var at []float64
	r.net.Deliver = func(n graph.NodeID, _ Packet) {
		if n == node {
			at = append(at, r.eng.Now())
		}
	}
	return &at
}

func TestUnicastDelayAndHops(t *testing.T) {
	topo, err := topology.Chain(3, 2.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, topo, 1)
	got := r.collect()
	c := topo.Clients[0] // 4 links from source, 2 ms each
	ok, d := r.net.Unicast(c, Packet{Kind: Request, From: topo.Source, Seq: 7})
	if !ok || math.Abs(d-8) > 1e-9 {
		t.Fatalf("unicast fate (%v, %v), want (true, 8)", ok, d)
	}
	r.eng.Run(0)
	if len(*got) != 1 {
		t.Fatalf("deliveries %d, want 1", len(*got))
	}
	dl := (*got)[0]
	if dl.node != c || math.Abs(dl.at-8) > 1e-9 || dl.pkt.Seq != 7 {
		t.Fatalf("bad delivery %+v", dl)
	}
	if r.net.Hops.Request != 4 || r.net.Hops.Data != 0 {
		t.Fatalf("hop accounting %+v, want 4 request hops", r.net.Hops)
	}
}

func TestUnicastToSelf(t *testing.T) {
	topo, _ := topology.Star(2, 1)
	r := newRig(t, topo, 1)
	got := r.collect()
	c := topo.Clients[0]
	ok, d := r.net.Unicast(c, Packet{Kind: Request, From: c})
	r.eng.Run(0)
	if !ok || d != 0 || len(*got) != 1 {
		t.Fatal("self-unicast should deliver immediately with zero hops")
	}
	if r.net.Hops.Request != 0 {
		t.Fatal("self-unicast should cost no hops")
	}
}

func TestUnicastLossStopsPacket(t *testing.T) {
	topo, _ := topology.Chain(3, 1.0, nil)
	topo.SetUniformLoss(1) // every link drops everything
	r := newRig(t, topo, 2)
	r.net.ControlLoss = true // recovery packets subject to loss too
	got := r.collect()
	c := topo.Clients[0]
	ok, _ := r.net.Unicast(c, Packet{Kind: Repair, From: topo.Source})
	r.eng.Run(0)
	if ok || len(*got) != 0 {
		t.Fatal("packet should have died on first link")
	}
	// Hop charged for the attempted first link only.
	if r.net.Hops.Repair != 1 || r.net.Drops.Repair != 1 {
		t.Fatalf("accounting %+v / %+v", r.net.Hops, r.net.Drops)
	}
}

func TestMulticastFromSourceReachesAllClients(t *testing.T) {
	topo, err := topology.Binary(3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, topo, 3)
	got := r.collect()
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source, Seq: 1})
	r.eng.Run(0)
	if len(*got) != len(topo.Clients) {
		t.Fatalf("deliveries %d, want %d", len(*got), len(topo.Clients))
	}
	for _, d := range *got {
		want := r.tree.DelayFromRoot[d.node]
		if math.Abs(d.at-want) > 1e-9 {
			t.Fatalf("client %d delivery at %v, want tree delay %v", d.node, d.at, want)
		}
	}
	// Every tree link crossed exactly once.
	if r.net.Hops.Data != int64(r.tree.NumTreeEdges()) {
		t.Fatalf("data hops %d, want %d", r.net.Hops.Data, r.tree.NumTreeEdges())
	}
}

func TestMulticastLossPrunesSubtree(t *testing.T) {
	// Binary tree; kill the link from the root router to its left child:
	// half the clients must get nothing, and no hops accrue below the cut.
	topo, _ := topology.Binary(3, 1)
	tree := mtree.MustBuild(topo)
	rootRouter := tree.Children[tree.Root][0]
	leftLink := tree.ChildLink[rootRouter][0]
	topo.Loss[leftLink] = 1
	r := newRig(t, topo, 4)
	got := r.collect()
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source})
	r.eng.Run(0)
	if len(*got) != len(topo.Clients)/2 {
		t.Fatalf("deliveries %d, want %d", len(*got), len(topo.Clients)/2)
	}
	// Hops: source link + root link attempts (1+2) + right subtree only.
	// Right subtree of depth-3 binary: 2 + 4·... count: total tree edges 15;
	// left subtree below cut has 6 edges that must NOT be crossed.
	if r.net.Hops.Data != 15-6 {
		t.Fatalf("data hops %d, want 9", r.net.Hops.Data)
	}
}

func TestFloodTreeFromClientReachesEveryone(t *testing.T) {
	topo, _ := topology.Binary(3, 1)
	r := newRig(t, topo, 5)
	got := r.collect()
	u := topo.Clients[0]
	r.net.FloodTree(Packet{Kind: Request, From: u, Seq: 3})
	r.eng.Run(0)
	// Everyone except the sender: all other clients + the source.
	if len(*got) != len(topo.Clients) {
		t.Fatalf("deliveries %d, want %d (peers+source)", len(*got), len(topo.Clients))
	}
	for _, d := range *got {
		if d.node == u {
			t.Fatal("flood delivered to its own sender")
		}
		want := r.tree.TreeDelay(u, d.node)
		if math.Abs(d.at-want) > 1e-9 {
			t.Fatalf("node %d at %v, want %v", d.node, d.at, want)
		}
	}
	if r.net.Hops.Request != int64(r.tree.NumTreeEdges()) {
		t.Fatalf("flood hops %d, want every tree edge once (%d)",
			r.net.Hops.Request, r.tree.NumTreeEdges())
	}
}

func TestMulticastSubtree(t *testing.T) {
	// Chain with a side client: repair from the side client via its meet
	// router must reach only the meet's subtree.
	topo, err := topology.Chain(3, 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, topo, 6)
	got := r.collect()
	tail := topo.Clients[0]
	side := topo.Clients[1] // attached at r2
	meet := r.tree.LCA(tail, side)
	r.net.MulticastSubtree(meet, Packet{Kind: Repair, From: side, Seq: 9})
	r.eng.Run(0)
	// Subtree of r2 contains side and tail (and r3).
	if len(*got) != 2 {
		t.Fatalf("deliveries %d, want 2", len(*got))
	}
	for _, d := range *got {
		switch d.node {
		case side:
			// up 1 (side→r2) + down 1 (r2→side) = 2 ms.
			if math.Abs(d.at-2) > 1e-9 {
				t.Fatalf("side at %v, want 2", d.at)
			}
		case tail:
			// up 1 + down r2→r3→tail (2) = 3 ms.
			if math.Abs(d.at-3) > 1e-9 {
				t.Fatalf("tail at %v, want 3", d.at)
			}
		default:
			t.Fatalf("unexpected delivery to %d", d.node)
		}
	}
	// Hops: 1 up + 3 down (r2→r3, r3→tail, r2→side).
	if r.net.Hops.Repair != 4 {
		t.Fatalf("repair hops %d, want 4", r.net.Hops.Repair)
	}
}

func TestMulticastSubtreePanicsOnNonAncestor(t *testing.T) {
	topo, _ := topology.Chain(2, 1, []int{1})
	r := newRig(t, topo, 7)
	tail := topo.Clients[0]
	side := topo.Clients[1]
	defer func() {
		if recover() == nil {
			t.Fatal("non-ancestor meet accepted")
		}
	}()
	r.net.MulticastSubtree(side, Packet{Kind: Repair, From: tail})
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed uint64) (HopCount, int, float64) {
		topo := topology.MustGenerate(topology.DefaultConfig(60), rng.New(9))
		topo.SetUniformLoss(0.2)
		tree := mtree.MustBuild(topo)
		eng := NewEngine()
		n := NewNet(eng, topo, tree, route.Build(topo), rng.New(seed))
		count := 0
		n.Deliver = func(graph.NodeID, Packet) { count++ }
		for s := 0; s < 50; s++ {
			s := s
			eng.Schedule(float64(s)*10, func() {
				n.MulticastFromSource(Packet{Kind: Data, From: topo.Source, Seq: s})
			})
		}
		eng.Run(0)
		return n.Hops, count, eng.Now()
	}
	h1, c1, t1 := run(42)
	h2, c2, t2 := run(42)
	if h1 != h2 || c1 != c2 || t1 != t2 {
		t.Fatalf("same seed diverged: %+v/%d/%v vs %+v/%d/%v", h1, c1, t1, h2, c2, t2)
	}
	h3, c3, _ := run(43)
	if h1 == h3 && c1 == c3 {
		t.Fatal("different seeds produced identical stochastic outcomes")
	}
}

func TestLossRateStatistics(t *testing.T) {
	// Empirical per-link loss over many multicasts should match p.
	topo, _ := topology.Chain(1, 1, nil) // S—r1—C: 2 links
	topo.SetUniformLoss(0.3)
	r := newRig(t, topo, 11)
	arrivals := r.arrivalsAt(topo.Clients[0])
	const trials = 20000
	for i := 0; i < trials; i++ {
		r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source, Seq: i})
	}
	r.eng.Run(0)
	// P(arrive) = 0.7².
	got := float64(len(*arrivals)) / trials
	if math.Abs(got-0.49) > 0.01 {
		t.Fatalf("arrival rate %v, want ~0.49", got)
	}
}

func TestWouldArrive(t *testing.T) {
	topo, _ := topology.Chain(3, 2, nil)
	r := newRig(t, topo, 1)
	if w := r.net.WouldArrive(topo.Clients[0]); math.Abs(w-8) > 1e-9 {
		t.Fatalf("WouldArrive %v, want 8", w)
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "data" || Request.String() != "request" ||
		Repair.String() != "repair" || Kind(7).String() != "kind(7)" {
		t.Fatal("kind strings wrong")
	}
}

func TestJitterBoundsDelay(t *testing.T) {
	topo, _ := topology.Chain(3, 2.0, nil) // 4 links of 2 ms
	r := newRig(t, topo, 21)
	r.net.Jitter = 0.5
	arrivals := r.arrivalsAt(topo.Clients[0])
	const trials = 500
	for i := 0; i < trials; i++ {
		r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source, Seq: i})
	}
	r.eng.Run(0)
	if len(*arrivals) != trials {
		t.Fatalf("arrivals %d", len(*arrivals))
	}
	// Base path delay is 8; with 50% jitter every arrival must land in
	// [8, 12) and must not all coincide.
	lo, hi := (*arrivals)[0], (*arrivals)[0]
	for _, a := range *arrivals {
		if a < 8-1e-9 || a >= 12 {
			t.Fatalf("arrival %v outside [8,12)", a)
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("jitter produced implausibly tight spread [%v,%v]", lo, hi)
	}
}

func TestJitterZeroIsExact(t *testing.T) {
	topo, _ := topology.Chain(3, 2.0, nil)
	r := newRig(t, topo, 22)
	arrivals := r.arrivalsAt(topo.Clients[0])
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source})
	r.eng.Run(0)
	if len(*arrivals) != 1 || math.Abs((*arrivals)[0]-8) > 1e-12 {
		t.Fatalf("no-jitter arrivals %v, want exactly [8]", *arrivals)
	}
}

func TestMulticastDescendUnqueued(t *testing.T) {
	topo, _ := topology.Chain(3, 1, []int{2})
	r := newRig(t, topo, 9)
	got := r.collect()
	tail := topo.Clients[0]
	side := topo.Clients[1]
	sub := r.tree.LCA(tail, side) // r2
	r.net.MulticastDescend(sub, Packet{Kind: Repair, From: topo.Source, Seq: 4})
	r.eng.Run(0)
	if len(*got) != 2 {
		t.Fatalf("deliveries %d, want 2", len(*got))
	}
	for _, d := range *got {
		switch d.node {
		case side:
			if math.Abs(d.at-3) > 1e-9 { // S→r1→r2 (2) + r2→side (1)
				t.Fatalf("side at %v, want 3", d.at)
			}
		case tail:
			if math.Abs(d.at-4) > 1e-9 { // + r2→r3→tail
				t.Fatalf("tail at %v, want 4", d.at)
			}
		}
	}
	// Hops: 2 down + 3 subtree links.
	if r.net.Hops.Repair != 5 {
		t.Fatalf("repair hops %d, want 5", r.net.Hops.Repair)
	}
}

func TestMulticastDescendPanicsOnNonAncestor(t *testing.T) {
	topo, _ := topology.Chain(2, 1, []int{1})
	r := newRig(t, topo, 10)
	tail := topo.Clients[0]
	side := topo.Clients[1]
	defer func() {
		if recover() == nil {
			t.Fatal("non-ancestor descend accepted")
		}
	}()
	r.net.MulticastDescend(side, Packet{Kind: Repair, From: tail})
}

func TestHopCountRecovery(t *testing.T) {
	h := HopCount{Data: 5, Request: 3, Repair: 4}
	if h.Recovery() != 7 {
		t.Fatalf("Recovery() = %d, want 7", h.Recovery())
	}
}

func TestOnSendHookFires(t *testing.T) {
	topo, _ := topology.Chain(1, 1, nil)
	r := newRig(t, topo, 11)
	sends := 0
	r.net.OnSend = func(Packet) { sends++ }
	r.net.MulticastFromSource(Packet{Kind: Data, From: topo.Source})
	r.net.Unicast(topo.Clients[0], Packet{Kind: Request, From: topo.Source})
	r.net.FloodTree(Packet{Kind: Repair, From: topo.Clients[0]})
	r.eng.Run(0)
	if sends != 3 {
		t.Fatalf("OnSend fired %d times, want 3", sends)
	}
}
