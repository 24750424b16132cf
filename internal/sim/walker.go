package sim

import "rmcast/internal/graph"

// Hop walkers: pooled, typed replacements for the per-hop closures the
// network layer used to schedule. Every delivery and every queued-model hop
// is one walker event; walkers recycle through an engine-owned free list,
// so forwarding a packet allocates nothing in steady state.
//
// There is one delivery event (wDeliver, which hands the packet to the
// net's single receiver) and one path walk per forwarding model: Unicast,
// MulticastSubtree and MulticastDescend each write their hops into the
// net's scratch and hand them to Net.walk. The precomputed model crosses
// them at send time; the queue model copies them into a walker, which takes
// one hop per wPathStep event. Floods fan out instead (wFloodVisit,
// wSubtreeVisit).
//
// Determinism: each walker replaces exactly one closure of the original
// implementation — the schedule calls happen in the same order, at the same
// times, drawing from the rng stream at the same points — so the (at, seq)
// event order of a fixed-seed run is unchanged.

// walkOp selects what a popped walker event does.
type walkOp uint8

const (
	// wDeliver hands the packet to the receiver — the terminal event of
	// every precomputed-path delivery.
	wDeliver walkOp = iota
	// wPathStep advances a queued path walk one hop.
	wPathStep
	// wFloodVisit delivers at a tree node and fans the queued flood out
	// over its remaining tree links.
	wFloodVisit
	// wSubtreeVisit delivers at a tree node and fans out to its children.
	wSubtreeVisit
)

// walker is the reusable state of one in-flight hop sequence. Fields are a
// union over the ops: node is always the next node to act at; via is the
// tree link a flood arrived on; path, idx and flood drive a path walk (its
// hops, the next one to take, and whether it ends in a subtree multicast).
type walker struct {
	op    walkOp
	flood bool
	n     *Net
	pkt   Packet
	node  graph.NodeID
	via   graph.EdgeID
	idx   int32
	path  []hop
	next  *walker // free-list link
}

// getWalker pops a recycled walker (or allocates the pool's next one).
func (e *Engine) getWalker() *walker {
	if w := e.freeW; w != nil {
		e.freeW = w.next
		w.next = nil
		return w
	}
	return &walker{}
}

// putWalker returns a walker to the free list, dropping every reference it
// held (payload, net) while keeping its path capacity.
func (e *Engine) putWalker(w *walker) {
	*w = walker{path: w.path[:0], next: e.freeW}
	e.freeW = w
}

// scheduleWalker enqueues the walker's next event.
func (e *Engine) scheduleWalker(at float64, w *walker) {
	e.push(at, event{kind: evWalker, ref: e.walks.put(w)})
}

// run dispatches one popped walker event. Ops that terminate here release
// the walker before invoking the receiver, so a receiver that injects new
// traffic can reuse it immediately.
func (w *walker) run() {
	n := w.n
	switch w.op {
	case wDeliver:
		node, pkt := w.node, w.pkt
		n.Eng.putWalker(w)
		n.Deliver(node, pkt)
	case wPathStep:
		n.pathStep(w)
	case wFloodVisit:
		node, via, pkt := w.node, w.via, w.pkt
		n.Eng.putWalker(w)
		n.upcall(node, pkt)
		n.floodFanOut(node, via, pkt)
	case wSubtreeVisit:
		node, pkt := w.node, w.pkt
		n.Eng.putWalker(w)
		n.upcall(node, pkt)
		n.subtreeFanOut(node, pkt)
	}
}
