package sim

import (
	"fmt"

	"rmcast/internal/graph"
)

// QueueModel adds store-and-forward queueing to the network: every link
// direction is a FIFO server that takes PacketTime ms to transmit one
// packet, so bursts serialise and chatty protocols congest shared links.
//
// The paper's simulator deliberately omits this ("unlike a real network,
// the link delay and loss properties are independent of the number of
// packets traversing the link") and notes the omission favours SRM and RMA,
// which "generate more data". Enabling the model quantifies that bias:
// whole-tree floods now pay for themselves in queueing delay.
//
// With a QueueModel attached the network forwards hop by hop through real
// events (a packet's fate at a link depends on traffic that reaches the
// link earlier in simulated time), instead of precomputing whole paths at
// injection time.
type QueueModel struct {
	// PacketTime is the per-packet transmission (service) time per link
	// direction, ms.
	PacketTime float64

	// busyUntil is dense per-direction server state, indexed by
	// qindex(link, fromA) = 2·link + direction. A map was measurably
	// slower and allocated on growth in the middle of runs.
	busyUntil []float64
}

// qindex maps a (link, direction) pair onto the dense busyUntil index.
func qindex(link graph.EdgeID, fromA bool) int {
	i := int(link) << 1
	if !fromA {
		i |= 1
	}
	return i
}

// NewQueueModel returns a queue model with the given per-packet service
// time for a graph with edges undirected links. The service time must be
// positive and the edge count non-negative.
func NewQueueModel(packetTime float64, edges int) *QueueModel {
	if packetTime <= 0 {
		panic(fmt.Sprintf("sim: non-positive packet time %v", packetTime))
	}
	if edges < 0 {
		panic(fmt.Sprintf("sim: negative edge count %d", edges))
	}
	return &QueueModel{PacketTime: packetTime, busyUntil: make([]float64, 2*edges)}
}

// departAfter reserves the link direction starting no earlier than `at` and
// returns the transmission-complete time. Must be called in nondecreasing
// event-time order per direction, which the event engine guarantees.
func (q *QueueModel) departAfter(link graph.EdgeID, fromA bool, at float64) float64 {
	s := &q.busyUntil[qindex(link, fromA)]
	start := at
	if *s > start {
		start = *s
	}
	dep := start + q.PacketTime
	*s = dep
	return dep
}

// Backlog returns the current queueing backlog (ms of work beyond `now`)
// on a link direction — visibility for tests and congestion metrics.
func (q *QueueModel) Backlog(link graph.EdgeID, fromA bool, now float64) float64 {
	b := q.busyUntil[qindex(link, fromA)] - now
	if b < 0 {
		return 0
	}
	return b
}

// sendHop transmits pkt across one link starting at time `at` (event time),
// applying queueing, jitter, and loss, and returns the arrival time at the
// far end and whether the packet survived. from must be an endpoint.
func (n *Net) sendHop(link graph.EdgeID, from graph.NodeID, at float64, pkt Packet) (float64, bool) {
	e := n.Topo.G.Edge(link)
	dep := at
	if n.Queue != nil {
		dep = n.Queue.departAfter(link, e.A == from, at)
	}
	if !n.crossLink(link, dep, pkt) {
		return dep, false
	}
	return dep + n.linkDelay(link), true
}

// pathStep runs one hop of a queued path walk (see walk): the injection
// call and every popped wPathStep event land here. One pooled walker carries
// the packet along its hops, reused for every hop. At the end it hands the
// packet to the last node through upcall (which the mutator sees even at a
// router) and, for a multicast, fans out over that node's subtree.
func (n *Net) pathStep(w *walker) {
	if int(w.idx) == len(w.path) {
		node, pkt, flood := w.node, w.pkt, w.flood
		n.Eng.putWalker(w)
		n.upcall(node, pkt)
		if flood {
			n.subtreeFanOut(node, pkt)
		}
		return
	}
	h := w.path[w.idx]
	w.idx++
	arrive, ok := n.sendHop(h.link, w.node, n.Eng.Now(), w.pkt)
	if !ok {
		n.Eng.putWalker(w)
		return
	}
	w.node = h.to
	n.Eng.scheduleWalker(arrive, w)
}

// floodFanOut transmits pkt over every tree link at node except via,
// scheduling one wFloodVisit walker per surviving transmission.
func (n *Net) floodFanOut(node graph.NodeID, via graph.EdgeID, pkt Packet) {
	for _, half := range n.treeAdj.Of(node) {
		if half.Edge == via {
			continue
		}
		arrive, ok := n.sendHop(half.Edge, node, n.Eng.Now(), pkt)
		if !ok {
			continue
		}
		w := n.Eng.getWalker()
		w.op, w.n, w.pkt, w.node, w.via = wFloodVisit, n, pkt, half.Peer, half.Edge
		n.Eng.scheduleWalker(arrive, w)
	}
}

// subtreeFanOut transmits pkt to every child of node, scheduling one
// wSubtreeVisit walker per surviving transmission.
func (n *Net) subtreeFanOut(node graph.NodeID, pkt Packet) {
	for i, c := range n.Tree.Children[node] {
		link := n.Tree.ChildLink[node][i]
		arrive, ok := n.sendHop(link, node, n.Eng.Now(), pkt)
		if !ok {
			continue
		}
		w := n.Eng.getWalker()
		w.op, w.n, w.pkt, w.node = wSubtreeVisit, n, pkt, c
		n.Eng.scheduleWalker(arrive, w)
	}
}
