package sim

import (
	"slices"

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
// shares n's topology, tree, routes, host set and tree adjacency, all
// read-only. shardOf maps every node to its shard and is shared read-only
// too. The caller sets the shard's receiver.
func (n *Net) Shard(eng *Engine, r *rng.Rand, id int32, shardOf []int32) *Net {
	return &Net{
		Eng:     eng,
		Topo:    n.Topo,
		Tree:    n.Tree,
		Routes:  n.Routes,
		r:       r,
		hosts:   n.hosts,
		treeAdj: n.treeAdj,
		shardOf: shardOf,
		shardID: id,
	}
}

// Outbox returns the cross-shard deliveries accumulated since the last
// ResetOutbox, in production order.
func (n *Net) Outbox() []RemoteDelivery { return n.outbox }

// ResetOutbox clears the outbox, keeping its capacity.
func (n *Net) ResetOutbox() { n.outbox = n.outbox[:0] }

// InjectRemote schedules the deliveries other shards computed for this one
// in a window, as one delivery batch. Its entries take consecutive
// tie-break sequence numbers in slice order, exactly as one push each
// would, so the batch fires them in time order and equal instants in slice
// order. The crash check already ran on the sending shard (against the
// shared fault state, so the answer is identical), leaving only the
// receiver upcall. rds is copied; the caller keeps it. A run of entries
// carrying one payload-free packet (a flood's data, in the order its
// sender produced it) shares one packet-table slot.
func (n *Net) InjectRemote(rds []RemoteDelivery) {
	b := n.Eng.newBatch(n, true)
	b.ents = slices.Grow(b.ents, len(rds))
	for _, rd := range rds {
		if !n.receives(rd.Node) {
			continue
		}
		pk := int32(len(b.pkts) - 1)
		if pk < 0 || !samePlain(b.pkts[pk], rd.Pkt) {
			pk = b.addPkt(rd.Pkt)
		}
		n.Eng.addArrival(b, rd.At, rd.Node, pk)
	}
	n.Eng.scheduleBatch(b)
}

// samePlain reports whether x and y are one payload-free packet. Packets
// with a payload never match: it is an interface, and comparing it could
// panic or be wrong.
func samePlain(x, y Packet) bool {
	return x.Payload == nil && y.Payload == nil && x.Kind == y.Kind && x.Seq == y.Seq && x.From == y.From
}
