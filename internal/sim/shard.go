package sim

import (
	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// RemoteDelivery is one packet delivery bound for a host owned by another
// shard of a partitioned run. The sending shard computes the arrival time
// (the whole path walk executes on its own engine) and parks the delivery in
// its outbox; the coordinator hands it to the owning shard at the next
// window boundary. At is always at least the sending event's time plus the
// partition lookahead — every cross-shard path crosses at least one cut
// link — which is what makes the window protocol conservative.
type RemoteDelivery struct {
	At   float64
	Node graph.NodeID
	Dst  int32
	Pkt  Packet
}

// Shard derives the net of shard id of a partitioned run from n, the
// session's own net: a fresh net on eng, drawing link loss from r, that
// shares n's topology, tree, routes and tree adjacency, all read-only.
// shardOf maps every node to its shard and hosts marks every node (across all
// shards) that has a handler somewhere; both are shared read-only too.
// Handler storage is a sparse map — a shard owns only its own band's hosts,
// so a dense per-node table per shard would cost K·n slots.
func (n *Net) Shard(eng *Engine, r *rng.Rand, id int32, shardOf []int32, hosts []bool) *Net {
	return &Net{
		Eng:         eng,
		Topo:        n.Topo,
		Tree:        n.Tree,
		Routes:      n.Routes,
		r:           r,
		treeAdj:     n.treeAdj,
		shardOf:     shardOf,
		shardID:     id,
		hostsShared: hosts,
		hmap:        make(map[graph.NodeID]Handler),
	}
}

// Outbox returns the cross-shard deliveries accumulated since the last
// ResetOutbox, in production order.
func (n *Net) Outbox() []RemoteDelivery { return n.outbox }

// ResetOutbox clears the outbox, keeping its capacity.
func (n *Net) ResetOutbox() { n.outbox = n.outbox[:0] }

// InjectRemote schedules a delivery computed by another shard. The crash
// check already ran on the sending shard (against the shared fault state, so
// the answer is identical), leaving only the handler upcall.
func (n *Net) InjectRemote(at float64, node graph.NodeID, pkt Packet) {
	w := n.Eng.getWalker()
	w.op, w.n, w.pkt, w.node = wDeliver, n, pkt, node
	n.Eng.scheduleWalker(at, w)
}

// hasHost reports whether node hosts a handler anywhere in the run — the
// delivery condition of the flood walks. Serial nets answer from their own
// handler table; sharded nets consult the shared host set, so a flood
// executing on one shard still produces deliveries for hosts owned by
// another (deliverAt then routes them through the outbox).
func (n *Net) hasHost(node graph.NodeID) bool {
	if n.shardOf != nil {
		return n.hostsShared[node]
	}
	return n.handlerOf(node) != nil
}
