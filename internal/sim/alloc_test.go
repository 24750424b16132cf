package sim

import (
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// Allocation-budget regression gates for the zero-allocation event core.
// These are hard limits, not benchmarks: a change that reintroduces per-event
// or per-hop allocation fails the suite.

// TestAllocsScheduleStep locks the steady-state schedule→fire cycle at zero
// allocations once the calendar's backing array has reached capacity.
func TestAllocsScheduleStep(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm-up: grow the heap's backing array past anything the measured
	// loop will need, then drain.
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	e.Run(0)
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule+Step allocates %v per cycle, want 0", avg)
	}
}

type countingCallee struct{ fired int }

func (c *countingCallee) OnSimEvent(op, a, b int) { c.fired++ }

// TestAllocsScheduleCall locks the typed-callback path at zero allocations:
// opcode and arguments ride inside the event, no closure is built.
func TestAllocsScheduleCall(t *testing.T) {
	e := NewEngine()
	c := &countingCallee{}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(e.Now()+1, c, 1, i, i)
	}
	e.Run(0)
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(e.Now()+1, c, 1, 2, 3)
		e.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleCall+Step allocates %v per cycle, want 0", avg)
	}
	if c.fired == 0 {
		t.Fatal("callee never fired")
	}
}

// TestAllocsTimerCycle locks a full arm→fire timer cycle at zero
// allocations beyond the caller's own callback closure (here non-capturing,
// hence free): the timer's state lives in a recycled engine slot.
func TestAllocsTimerCycle(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.NewTimer(1, fn)
	}
	e.Run(0)
	if avg := testing.AllocsPerRun(1000, func() {
		e.NewTimer(1, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("NewTimer+fire allocates %v per cycle, want 0", avg)
	}
}

// allocNet returns a net over topo for the forwarding budgets, with a
// receiver counting deliveries, under the queue model when queued is set.
func allocNet(t *testing.T, topo *topology.Network, queued bool) (*Net, *int) {
	t.Helper()
	tree, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNet(NewEngine(), topo, tree, route.Build(topo), rng.New(1))
	if queued {
		n.Queue = NewQueueModel(0.1, topo.G.NumEdges())
	}
	deliveries := 0
	n.Deliver = func(graph.NodeID, Packet) { deliveries++ }
	return n, &deliveries
}

// checkSendAllocs warms send's pools and calendar with one call, then
// asserts a warm send (plus draining its events) allocates at most budget
// per call and delivers something.
func checkSendAllocs(t *testing.T, n *Net, deliveries *int, budget float64, send func()) {
	t.Helper()
	run := func() {
		send()
		n.Eng.Run(0)
	}
	run()
	if avg := testing.AllocsPerRun(200, run); avg > budget {
		t.Fatalf("allocates %v per send, want ≤ %v", avg, budget)
	}
	if *deliveries == 0 {
		t.Fatal("no deliveries — the measurement exercised nothing")
	}
}

// TestAllocsQueuedUnicastHop budgets a queued-model unicast at one
// allocation per hop at most; with the pooled walkers it is in fact zero
// once the pool is warm.
func TestAllocsQueuedUnicastHop(t *testing.T) {
	topo, err := topology.Chain(3, 2.0, nil) // src —4 links→ client
	if err != nil {
		t.Fatal(err)
	}
	n, deliveries := allocNet(t, topo, true)
	const hops = 4
	checkSendAllocs(t, n, deliveries, hops, func() {
		n.Unicast(topo.Clients[0], Packet{Kind: Request, From: topo.Source, Seq: 1})
	})
}

// TestAllocsQueuedFlood budgets a whole queued tree flood: fan-out walkers
// come from the pool, so a warm flood allocates nothing.
func TestAllocsQueuedFlood(t *testing.T) {
	topo, err := topology.Binary(3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	n, deliveries := allocNet(t, topo, true)
	checkSendAllocs(t, n, deliveries, 0, func() {
		n.MulticastFromSource(Packet{Kind: Data, Seq: 1, From: topo.Source})
	})
}

// TestAllocsSubtreeMulticasts budgets MulticastSubtree (an ascent) and
// MulticastDescend (a descent), each followed by a subtree flood, at zero
// allocations once warm, in both forwarding models: their hops live in the
// net's reused scratch, and a queued walk copies them into a pooled
// walker's reused path.
func TestAllocsSubtreeMulticasts(t *testing.T) {
	topo, err := topology.Chain(3, 1, []int{2}) // S—r1—r2—r3—tail, side on r2
	if err != nil {
		t.Fatal(err)
	}
	tail, side := topo.Clients[0], topo.Clients[1]
	for _, queued := range []bool{false, true} {
		name := "precomputed"
		if queued {
			name = "queued"
		}
		t.Run(name+"/subtree", func(t *testing.T) {
			n, deliveries := allocNet(t, topo, queued)
			meet := n.Tree.LCA(tail, side)
			checkSendAllocs(t, n, deliveries, 0, func() {
				n.MulticastSubtree(meet, Packet{Kind: Repair, From: side, Seq: 1})
			})
		})
		t.Run(name+"/descend", func(t *testing.T) {
			n, deliveries := allocNet(t, topo, queued)
			sub := n.Tree.LCA(tail, side)
			checkSendAllocs(t, n, deliveries, 0, func() {
				n.MulticastDescend(sub, Packet{Kind: Repair, From: topo.Source, Seq: 1})
			})
		})
	}
}

// TestAllocsFloods budgets the precomputed floods, FloodTree from a client
// and MulticastFromSource, at zero allocations once warm: each send's
// deliveries ride in one pooled batch.
func TestAllocsFloods(t *testing.T) {
	topo, err := topology.Binary(3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("FloodTree", func(t *testing.T) {
		n, deliveries := allocNet(t, topo, false)
		checkSendAllocs(t, n, deliveries, 0, func() {
			n.FloodTree(Packet{Kind: Request, Seq: 1, From: topo.Clients[0]})
		})
	})
	t.Run("MulticastFromSource", func(t *testing.T) {
		n, deliveries := allocNet(t, topo, false)
		checkSendAllocs(t, n, deliveries, 0, func() {
			n.MulticastFromSource(Packet{Kind: Data, Seq: 1, From: topo.Source})
		})
	})
}

// TestAllocsTimerStopChurn budgets arm-and-stop cycles that purge the
// calendar at zero allocations once warm: purged keys and freed slots
// recycle through the side heap and the slot free list.
func TestAllocsTimerStopChurn(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	timers := make([]Timer, 64)
	purged := false
	cycle := func() {
		for i := range timers {
			timers[i] = e.NewTimer(float64(i%5), fn)
		}
		for _, tm := range timers[:60] {
			tm.Stop()
		}
		purged = purged || len(e.stale) > 0
		e.Run(0)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("arm-and-stop cycle allocates %v, want 0", avg)
	}
	if !purged {
		t.Fatal("no cycle purged — the measurement exercised nothing")
	}
}

// TestAllocsLargeBatches budgets overlapping batches beyond batchKeep
// entries, the shape of a data flood to a large group, at zero allocations
// once warm: their entry arrays come back as spares. The first cycle also
// checks that every entry fires once, in (at, seq) order.
func TestAllocsLargeBatches(t *testing.T) {
	const size, overlap = 3 * batchKeep, 3
	e := NewEngine()
	n := &Net{Eng: e, hosts: make([]bool, size)}
	for i := range n.hosts {
		n.hosts[i] = true
	}
	var fired []float64
	n.Deliver = func(graph.NodeID, Packet) { fired = append(fired, e.Now()) }
	r := rng.New(3)
	at := make([]float64, size)
	for i := range at {
		at[i] = float64(r.Intn(64))
	}
	cycle := func() {
		fired = fired[:0]
		for k := 0; k < overlap; k++ {
			b := e.newBatch(n, true)
			pk := b.addPkt(Packet{Kind: Data, Seq: k})
			for i, d := range at {
				e.addArrival(b, e.Now()+d+float64(k), graph.NodeID(i), pk)
			}
			e.scheduleBatch(b)
		}
		e.Run(0)
	}
	cycle()
	if len(fired) != size*overlap {
		t.Fatalf("%d deliveries, want %d", len(fired), size*overlap)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("delivery %d at %v after one at %v", i, fired[i], fired[i-1])
		}
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a cycle of %d overlapping %d-entry batches allocates %v, want 0", overlap, size, avg)
	}
}

// BenchmarkEngineScheduleStep measures the raw calendar hot loop.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}
