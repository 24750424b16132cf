package sim

import (
	"fmt"
	"math"
	"slices"

	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// Kind classifies simulated packets.
type Kind uint8

const (
	// Data is an original multicast data packet from the source.
	Data Kind = iota
	// Request is a recovery request (RP/RMA unicast request, SRM NACK).
	Request
	// Repair is a retransmission of a lost data packet.
	Repair
)

// String returns the packet kind name.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Request:
		return "request"
	case Repair:
		return "repair"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet is one simulated packet. Protocols attach their state via Payload.
type Packet struct {
	Kind Kind
	// Seq is the data sequence number this packet concerns.
	Seq int
	// From is the transmitting host.
	From graph.NodeID
	// Payload carries protocol-specific fields (never inspected here).
	Payload interface{}
}

// HopCount tallies link traversals by packet kind. One traversal of one
// link by one packet counts one hop, whether or not the link then drops
// the packet (the transmission happened) — this is the paper's bandwidth
// measure, "average bandwidth usage per packet recovered (hops)".
type HopCount struct {
	Data, Request, Repair int64
}

// Recovery returns the recovery-traffic hops (requests + repairs).
func (h HopCount) Recovery() int64 { return h.Request + h.Repair }

func (h *HopCount) add(k Kind, n int64) {
	switch k {
	case Data:
		h.Data += n
	case Request:
		h.Request += n
	case Repair:
		h.Repair += n
	}
}

// Net is the simulated network: topology + tree + routing + loss, glued to
// an event engine. It hands every packet that reaches a host to one
// receiver, Deliver.
type Net struct {
	Eng    *Engine
	Topo   *topology.Network
	Tree   *mtree.Tree
	Routes route.Router
	// Deliver receives every packet that arrives at a host (the source or a
	// client). Packets reach no other node, and a net without a receiver
	// delivers nothing.
	Deliver func(node graph.NodeID, pkt Packet)
	// Hops accumulates the bandwidth accounting.
	Hops HopCount
	// Drops counts packets killed by link loss, by kind.
	Drops HopCount
	// ControlLoss subjects Request/Repair packets to per-link loss like
	// data. The paper's evaluation implicitly keeps recovery traffic
	// lossless — §3.1 "the probability that the request or the repair is
	// lost is ignored", and Figures 7/8's flat latency up to p=20% is
	// only possible under that assumption — so false is the default and
	// the faithful setting; true enables the harsher model exercised by
	// the failure-injection tests and robustness benchmarks.
	ControlLoss bool
	// OnSend, when non-nil, observes every packet injection (one call per
	// Unicast/flood, not per hop). OnDrop observes per-link losses. Both
	// exist for tracing; nil hooks cost nothing.
	OnSend func(pkt Packet)
	OnDrop func(pkt Packet, link graph.EdgeID)
	// Jitter adds per-traversal queueing variability: each link crossing
	// takes Delay·(1 + Jitter·U[0,1)) instead of the fixed Delay. The
	// paper's model has no queueing ("link delay … independent of the
	// number of packets traversing the link"), so zero is the default;
	// positive values stress the protocols' timeout margins (their RTT
	// estimates remain the no-jitter values).
	Jitter float64
	// Queue, when non-nil, enables the store-and-forward congestion model
	// (see QueueModel): forwarding becomes hop-by-hop events and bursts
	// serialise per link direction.
	Queue *QueueModel
	// Fault, when non-nil, is the failure-injection model (see
	// internal/fault and InstallFault): crashed hosts drop every packet
	// they would send or receive, downed links drop every crossing, and
	// links with a burst chain replace their flat loss draw with the
	// Gilbert–Elliott model. A state compiled from an empty schedule is
	// inert and leaves the run bit-identical to Fault == nil.
	Fault *fault.State
	// OnCrash and OnRecover fire at each effective host crash/recover
	// transition of the installed fault schedule (see InstallFault).
	OnCrash   func(node graph.NodeID)
	OnRecover func(node graph.NodeID)

	r *rng.Rand
	// hosts marks the source and the clients, the nodes that take
	// deliveries. NewNet builds it once; it is read-only afterwards, so
	// every shard of a partitioned run shares its session net's slice.
	hosts []bool
	// mut is the message-plane mutator of the installed fault state (nil
	// when none): control-plane deliveries route through deliverMutated,
	// which may duplicate, delay, or corrupt them. Data is never mutated.
	mut *fault.Mutator
	// treeAdj is adjacency restricted to tree links, for flood traversal.
	// It is immutable after construction and shared across every shard of a
	// partitioned run: at n=1,000,000 that turns K copies of a ~2.5M-entry
	// adjacency into one.
	treeAdj *mtree.Adjacency

	// Sharded-mode state (see shard.go; all nil/zero on a session's own net).
	// shardOf is the shared node→shard map of the partition, shardID this
	// net's own shard, and outbox the cross-shard deliveries produced by the
	// current window.
	shardOf []int32
	shardID int32
	outbox  []RemoteDelivery
	// path and floodStack are reused scratch: path holds the hops of the
	// send in progress (see walk), floodStack the pending nodes of a
	// precomputed-path flood (floodFrom, subtreeFlood). Safe to share: a
	// precomputed walk only fills a delivery batch, so no receiver — and no
	// nested send — runs inside it, and a queued walk copies its hops into
	// its walker before any receiver runs.
	path       []hop
	floodStack []floodFrame
}

// hop is one link crossing of a path walk: the link and the node it leads
// to.
type hop struct {
	link graph.EdgeID
	to   graph.NodeID
}

// floodFrame is one pending node of a precomputed-path flood traversal.
type floodFrame struct {
	node, prev graph.NodeID
	acc        float64
}

// Garbage is the payload substituted when the fault mutator corrupts a
// control packet's payload. Protocol engines must reject it through their
// payload validation (counted as malformed) rather than misbehave.
type Garbage struct{}

// Symbol is the wire payload of one coded repair symbol (the COOP engine's
// block-recovery unit). A block of K data packets is expanded into K+R
// symbols: Index < K names the systematic symbol carrying data sequence
// Block·K+Index verbatim; K ≤ Index < K+R names a coded symbol, any
// combination of which adds one unit of decode rank — a client holding any
// K distinct symbols of a block reconstructs every packet in it. Symbol
// packets travel as Kind Repair (they are recovery traffic for bandwidth
// accounting) and are classed fault.ClassSymbol for mutation.
type Symbol struct {
	Block int32
	Index int32
}

// NewNet wires a network simulation over the given substrate. The rng
// stream is owned by the Net afterwards (loss draws must not interleave
// with other users).
func NewNet(eng *Engine, topo *topology.Network, tree *mtree.Tree, routes route.Router, r *rng.Rand) *Net {
	hosts := make([]bool, topo.NumNodes())
	hosts[topo.Source] = true
	for _, c := range topo.Clients {
		hosts[c] = true
	}
	return &Net{
		Eng:     eng,
		Topo:    topo,
		Tree:    tree,
		Routes:  routes,
		r:       r,
		hosts:   hosts,
		treeAdj: mtree.NewAdjacency(topo),
	}
}

// InstallFault attaches a failure-injection model and schedules its host
// transitions as engine events, so the OnCrash/OnRecover hooks fire at the
// scheduled instants (the hooks may be assigned after this call; they are
// read at fire time). Every shard of a partitioned run installs the session
// net's state: its window lookups are pure, so sharing is safe, and a shard
// schedules the transitions of its own hosts only, so across shards every
// hook fires exactly once, at the same instants as in a one-shard run.
func (n *Net) InstallFault(st *fault.State) {
	n.Fault = st
	n.mut = st.Mutator()
	for _, e := range st.HostEvents() {
		if n.shardOf != nil && n.shardOf[e.Node] != n.shardID {
			continue
		}
		n.scheduleHostEvent(e)
	}
}

// scheduleHostEvent schedules one host crash/recover transition.
func (n *Net) scheduleHostEvent(e fault.Event) {
	n.Eng.Schedule(e.At, func() {
		switch e.Kind {
		case fault.CrashHost:
			if n.OnCrash != nil {
				n.OnCrash(e.Node)
			}
		case fault.RecoverHost:
			if n.OnRecover != nil {
				n.OnRecover(e.Node)
			}
		}
	})
}

// senderDown reports whether the packet's origin host is crashed right now,
// in which case the injection is suppressed entirely: no hops are charged
// and no hooks fire — a dead host transmits nothing.
func (n *Net) senderDown(pkt Packet) bool {
	return n.Fault != nil && !n.Fault.HostUpAt(pkt.From, n.Eng.Now())
}

// deliver queues the receiver upcall of b.pkts[pk] at node, at absolute
// time at, into b. Deliveries to hosts crashed at the arrival instant vanish
// silently. Control-plane deliveries pass through the message mutator when
// one is installed and active for their class.
func (n *Net) deliver(b *batch, node graph.NodeID, at float64, pk int32) {
	if n.mut != nil && b.pkts[pk].Kind != Data && n.mut.Active(classOf(b.pkts[pk])) {
		n.deliverMutated(b, node, at, pk)
		return
	}
	n.deliverAt(b, node, at, pk)
}

// deliverAt is the mutation-free delivery: the crash check, then an entry
// of b if node takes deliveries. In sharded mode a delivery to a node
// another shard owns goes to the outbox instead — the arrival time is final
// here, and the crash check against the shared fault state gives the same
// verdict the owner would compute.
func (n *Net) deliverAt(b *batch, node graph.NodeID, at float64, pk int32) {
	if n.Fault != nil && !n.Fault.HostUpAt(node, at) {
		return
	}
	if n.shardOf != nil {
		if dst := n.shardOf[node]; dst != n.shardID {
			n.outbox = append(n.outbox, RemoteDelivery{At: at, Node: node, Dst: dst, Pkt: b.pkts[pk]})
			return
		}
	}
	if n.receives(node) {
		n.Eng.addArrival(b, at, node, pk)
	}
}

// receives reports whether node takes deliveries: it is a host, and the
// net has a receiver.
func (n *Net) receives(node graph.NodeID) bool {
	return n.Deliver != nil && n.hosts[node]
}

// deliverMutated samples one delivery's adversarial fate: the original copy
// (possibly delayed and corrupted) plus any duplicate copies, each intact
// and independently delayed. Every copy still respects the crash model at
// its own arrival instant. A corrupted copy joins b's packet table.
func (n *Net) deliverMutated(b *batch, node graph.NodeID, at float64, pk int32) {
	pkt := b.pkts[pk]
	var mu fault.Mutation
	if !n.mut.Sample(classOf(pkt), at, &mu) {
		n.deliverAt(b, node, at, pk)
		return
	}
	switch mu.Corrupt {
	case fault.CorruptSeq:
		pkt.Seq = -1 - pkt.Seq
	case fault.CorruptFrom:
		pkt.From = -1 - pkt.From
	case fault.CorruptPayload:
		pkt.Payload = Garbage{}
	case fault.CorruptSymbolIndex:
		if sym, ok := pkt.Payload.(Symbol); ok {
			pkt.Payload = Symbol{Block: sym.Block, Index: -1 - sym.Index}
		}
	case fault.CorruptSymbolTrunc:
		pkt.Payload = Garbage{}
	}
	first := pk
	if mu.Corrupt != fault.CorruptNone {
		first = b.addPkt(pkt)
	}
	n.deliverAt(b, node, at+mu.Delay, first)
	for _, d := range mu.Copies {
		n.deliverAt(b, node, at+d, pk)
	}
}

// classOf maps a control packet onto the mutator's class space: repairs
// carrying a coded Symbol payload are their own class (they have payload
// validation to attack), plain repairs and requests keep their classes.
func classOf(pkt Packet) fault.MsgClass {
	if pkt.Kind == Repair {
		if _, ok := pkt.Payload.(Symbol); ok {
			return fault.ClassSymbol
		}
		return fault.ClassRepair
	}
	return fault.ClassRequest
}

// upcall hands pkt to the receiver immediately (queued-model arrivals), if
// node takes deliveries and is not crashed at the current time. A mutated
// control delivery is rescheduled through deliverMutated instead — its
// copies need their own arrival events, which ride in one batch.
func (n *Net) upcall(node graph.NodeID, pkt Packet) {
	if n.mut != nil && pkt.Kind != Data && n.mut.Active(classOf(pkt)) {
		b := n.Eng.newBatch(n, false)
		n.deliverMutated(b, node, n.Eng.Now(), b.addPkt(pkt))
		n.Eng.scheduleBatch(b)
		return
	}
	if n.Fault != nil && !n.Fault.HostUpAt(node, n.Eng.Now()) {
		return
	}
	if n.receives(node) {
		n.Deliver(node, pkt)
	}
}

// crossLink charges one hop for the packet and decides its fate on the link
// whose traversal begins at time at: a downed link drops every packet; an
// up link draws loss — from the link's Gilbert–Elliott burst chain when the
// fault model configures one, from the flat Topo.Loss rate otherwise. The
// hop is charged even when the packet then dies (the transmission
// happened); this is the paper's bandwidth measure.
func (n *Net) crossLink(link graph.EdgeID, at float64, pkt Packet) bool {
	n.Hops.add(pkt.Kind, 1)
	if n.Fault != nil && !n.Fault.LinkUpAt(link, at) {
		n.Drops.add(pkt.Kind, 1)
		if n.OnDrop != nil {
			n.OnDrop(pkt, link)
		}
		return false
	}
	if pkt.Kind != Data && !n.ControlLoss {
		return true
	}
	lost := false
	if n.Fault != nil {
		if burstLost, ok := n.Fault.CrossBurst(link); ok {
			lost = burstLost
		} else {
			lost = n.r.Bool(n.Topo.Loss[link])
		}
	} else {
		lost = n.r.Bool(n.Topo.Loss[link])
	}
	if lost {
		n.Drops.add(pkt.Kind, 1)
		if n.OnDrop != nil {
			n.OnDrop(pkt, link)
		}
		return false
	}
	return true
}

// noteSend fires the OnSend hook.
func (n *Net) noteSend(pkt Packet) {
	if n.OnSend != nil {
		n.OnSend(pkt)
	}
}

// linkDelay returns the traversal time of one link for one packet,
// including jitter when configured.
func (n *Net) linkDelay(link graph.EdgeID) float64 {
	d := n.Topo.Delay[link]
	if n.Jitter > 0 {
		d *= 1 + n.Jitter*n.r.Float64()
	}
	return d
}

// Unicast sends pkt from pkt.From to dest along the minimum-delay path,
// applying per-link delay and loss. The delivery (if the packet survives
// every link) is scheduled relative to the current time. It reports the
// packet's fate and the end-to-end delay for testing; protocols normally
// ignore the return values (they cannot observe them without cheating).
// Under the queue model the fate is unknowable at injection time, so it
// reports (false, NaN).
func (n *Net) Unicast(dest graph.NodeID, pkt Packet) (delivered bool, delay float64) {
	if n.senderDown(pkt) {
		return false, math.NaN()
	}
	n.noteSend(pkt)
	if pkt.From == dest {
		b := n.Eng.newBatch(n, false)
		n.deliver(b, dest, n.Eng.Now(), b.addPkt(pkt))
		n.Eng.scheduleBatch(b)
		return true, 0
	}
	hops := n.path[:0]
	for cur := pkt.From; cur != dest; {
		next, link := n.Routes.NextHop(cur, dest)
		if next == graph.None {
			panic(fmt.Sprintf("sim: no route %d→%d", cur, dest))
		}
		hops = append(hops, hop{link, next})
		cur = next
	}
	return n.walk(hops, pkt, false)
}

// MulticastSubtree sends pkt from a host up the tree to the router meet and
// then multicast down meet's whole subtree — RMA's partial repair (§1: the
// repairer "will multicast the repair to the subtree that contains all the
// receivers that have been requested"). pkt.From must be a tree descendant
// of meet (or meet itself).
func (n *Net) MulticastSubtree(meet graph.NodeID, pkt Packet) {
	if !n.Tree.IsAncestor(meet, pkt.From) {
		panic(fmt.Sprintf("sim: %d not an ancestor of repairer %d", meet, pkt.From))
	}
	if n.senderDown(pkt) {
		return
	}
	n.noteSend(pkt)
	hops := n.path[:0]
	for cur := pkt.From; cur != meet; cur = n.Tree.Parent[cur] {
		hops = append(hops, hop{n.Tree.ParentLink[cur], n.Tree.Parent[cur]})
	}
	n.walk(hops, pkt, true)
}

// MulticastDescend sends pkt from pkt.From (which must be a tree ancestor
// of sub) down the tree path to router sub and then multicast over sub's
// whole subtree. This models a source-subgroup repair (paper §2.2 /
// reference [4]): "whenever S receives a recovery request, it will
// multicast the packet to all members of the subgroup (using the original
// multicast tree) from where the recovery request came".
func (n *Net) MulticastDescend(sub graph.NodeID, pkt Packet) {
	if !n.Tree.IsAncestor(pkt.From, sub) {
		panic(fmt.Sprintf("sim: %d not an ancestor of subgroup root %d", pkt.From, sub))
	}
	if n.senderDown(pkt) {
		return
	}
	n.noteSend(pkt)
	// Collect the downward path by walking up, then cross it top-down.
	hops := n.path[:0]
	for cur := sub; cur != pkt.From; cur = n.Tree.Parent[cur] {
		hops = append(hops, hop{n.Tree.ParentLink[cur], cur})
	}
	slices.Reverse(hops)
	n.walk(hops, pkt, true)
}

// walk carries pkt from pkt.From across hops: the one path walk behind
// Unicast, MulticastSubtree and MulticastDescend. The precomputed model
// crosses every hop now and collects the deliveries into one batch; the
// queue model takes one hop per event (pathStep). At the end a unicast
// (flood false) hands its destination to deliver unconditionally — the
// message mutator draws there — while a subtree multicast (flood true)
// delivers to the end node only if it is a host and then floods the end
// node's subtree. It returns Unicast's fate and delay.
func (n *Net) walk(hops []hop, pkt Packet, flood bool) (bool, float64) {
	n.path = hops
	if n.Queue != nil {
		w := n.Eng.getWalker()
		w.op, w.n, w.pkt, w.node, w.flood = wPathStep, n, pkt, pkt.From, flood
		w.path = append(w.path[:0], hops...)
		n.pathStep(w)
		return false, math.NaN()
	}
	var acc float64
	end := pkt.From
	for _, h := range hops {
		start := n.Eng.Now() + acc
		acc += n.linkDelay(h.link)
		if !n.crossLink(h.link, start, pkt) {
			return false, acc
		}
		end = h.to
	}
	b := n.Eng.newBatch(n, flood)
	pk := b.addPkt(pkt)
	if !flood || n.hosts[end] {
		n.deliver(b, end, n.Eng.Now()+acc, pk)
	}
	if flood {
		n.subtreeFlood(b, end, acc, pk)
	}
	n.Eng.scheduleBatch(b)
	return true, acc
}

// FloodTree multicasts pkt over the whole multicast tree outward from
// pkt.From (which must be a tree node), the way an SRM member's multicast
// reaches the entire group. Each tree link is traversed once (subject to
// loss pruning); every host reached gets a delivery at its tree-path delay.
func (n *Net) FloodTree(pkt Packet) {
	if n.senderDown(pkt) {
		return
	}
	n.noteSend(pkt)
	if n.Queue != nil {
		n.floodFanOut(pkt.From, graph.NoEdge, pkt)
		return
	}
	b := n.Eng.newBatch(n, true)
	n.floodFrom(b, b.addPkt(pkt))
	n.Eng.scheduleBatch(b)
}

// floodFrom walks tree links outward from the sender of b.pkts[pk],
// delivering into b at hosts along the way.
func (n *Net) floodFrom(b *batch, pk int32) {
	pkt := b.pkts[pk]
	stack := append(n.floodStack[:0], floodFrame{pkt.From, graph.None, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range n.treeAdj.Of(f.node) {
			if h.Peer == f.prev {
				continue
			}
			start := n.Eng.Now() + f.acc
			d := f.acc + n.linkDelay(h.Edge)
			if !n.crossLink(h.Edge, start, pkt) {
				continue // prune the subtree behind the lossy link
			}
			if n.hosts[h.Peer] {
				n.deliver(b, h.Peer, n.Eng.Now()+d, pk)
			}
			stack = append(stack, floodFrame{h.Peer, f.node, d})
		}
	}
	n.floodStack = stack[:0]
}

// subtreeFlood delivers b.pkts[pk] into b at every host strictly below
// root, which the packet reaches acc ms from now.
func (n *Net) subtreeFlood(b *batch, root graph.NodeID, acc float64, pk int32) {
	pkt := b.pkts[pk]
	stack := append(n.floodStack[:0], floodFrame{node: root, acc: acc})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, c := range n.Tree.Children[f.node] {
			link := n.Tree.ChildLink[f.node][i]
			start := n.Eng.Now() + f.acc
			d := f.acc + n.linkDelay(link)
			if !n.crossLink(link, start, pkt) {
				continue
			}
			if n.hosts[c] {
				n.deliver(b, c, n.Eng.Now()+d, pk)
			}
			stack = append(stack, floodFrame{node: c, acc: d})
		}
	}
	n.floodStack = stack[:0]
}

// MulticastFromSource floods pkt from the tree root downward — the original
// data transmission. Equivalent to FloodTree from the source but named for
// clarity at call sites.
func (n *Net) MulticastFromSource(pkt Packet) {
	if pkt.From != n.Tree.Root {
		panic("sim: MulticastFromSource from non-root")
	}
	if n.senderDown(pkt) {
		return
	}
	n.noteSend(pkt)
	if n.Queue != nil {
		n.subtreeFanOut(n.Tree.Root, pkt)
		return
	}
	b := n.Eng.newBatch(n, true)
	n.subtreeFlood(b, n.Tree.Root, 0, b.addPkt(pkt))
	n.Eng.scheduleBatch(b)
}

// WouldArrive returns the loss-free tree-path delay from the source to a
// host — the time a data packet sent now would reach it. Protocol engines
// use it for idealised loss-detection timing (see package protocol).
func (n *Net) WouldArrive(host graph.NodeID) float64 {
	return n.Tree.DelayFromRoot[host]
}
