package sim

import "rmcast/internal/graph"

// Delivery batches and hop walkers: the two pooled event payloads of the
// network layer. Forwarding a packet allocates nothing in steady state.
//
// A delivery batch holds every receiver upcall one send produces under the
// precomputed model: one for a unicast, one per reached host for a flood
// (FloodTree, MulticastFromSource and the subtree part of MulticastSubtree
// and MulticastDescend), one per mutated copy, or one per arrival a shard
// ingests from the other shards in a window (InjectRemote). The crash check
// and the mutator's draws still run at send time, in the order the eager
// schedule made them. Each entry takes the tie-break sequence number its
// own push would have taken, the entries are sorted by (at, seq), and the
// batch sits in the calendar as one event keyed at its next entry. Each
// entry fires as one event; the batch takes its next key before the
// receiver runs, and goes back to the pool with its last entry.
//
// A hop walker carries one queued-model packet: Unicast, MulticastSubtree
// and MulticastDescend write their hops into the net's scratch and hand
// them to Net.walk, which copies them into a walker that takes one hop per
// wPathStep event. Queued floods fan out instead (wFloodVisit,
// wSubtreeVisit).
//
// Determinism: each walker event replaces exactly one closure of the
// original implementation and each batch entry exactly one delivery event —
// the schedule calls happen in the same order, at the same times, drawing
// from the rng stream at the same points — so the (at, seq) event order of
// a fixed-seed run is unchanged.

// Batch pooling. A recycled batch keeps its arrays up to batchKeep slots: a
// flood to a large group would otherwise pin its array in the pool for the
// rest of the run. The engine keeps the spareKeep largest entry arrays given
// up, and the next floods that start without an array or outgrow batchKeep
// take them, so a run whose floods reach many hosts reuses a few arrays
// instead of growing a new one per flood. A unicast's batch and a flood's or
// an ingest's pool apart, so the many unicasts in flight never hold a
// flood's arrays.
const (
	batchKeep = 1024
	spareKeep = 4
)

// arrival is one entry of a delivery batch: the receiver upcall of pkts[pkt]
// at node, keyed (at, seq) like the event it stands for.
type arrival struct {
	at   float64
	seq  uint64
	node graph.NodeID
	pkt  int32
}

// batch is the reusable state of one send's deliveries. pkts holds the
// packets its entries refer to: the send's own packet first, then each
// corrupted copy (one send) or each ingested packet (InjectRemote). many
// marks a flood's or an ingest's batch, which recycles through its own
// free list.
type batch struct {
	n    *Net
	next int
	many bool
	ents []arrival
	pkts []Packet
}

// newBatch pops a recycled batch (or allocates the pool's next one) for
// deliveries on n: a large one when many is set.
func (e *Engine) newBatch(n *Net, many bool) *batch {
	pool := &e.freeB
	if many {
		pool = &e.freeBig
	}
	var b *batch
	if k := len(*pool); k > 0 {
		b = (*pool)[k-1]
		*pool = (*pool)[:k-1]
	} else {
		b = &batch{many: many}
	}
	b.n = n
	return b
}

// putBatch returns b to the pool, dropping every packet it referenced and
// any array above batchKeep; an entry array above it may become a spare.
func (e *Engine) putBatch(b *batch) {
	clear(b.pkts)
	b.n, b.next, b.ents, b.pkts = nil, 0, b.ents[:0], b.pkts[:0]
	if cap(b.ents) > batchKeep {
		e.keepSpare(b.ents)
		b.ents = nil
	}
	if cap(b.pkts) > batchKeep {
		b.pkts = nil
	}
	if b.many {
		e.freeBig = append(e.freeBig, b)
	} else {
		e.freeB = append(e.freeB, b)
	}
}

// addPkt appends pkt to b's packet table and returns its index.
func (b *batch) addPkt(pkt Packet) int32 {
	b.pkts = append(b.pkts, pkt)
	return int32(len(b.pkts) - 1)
}

// keepSpare keeps the empty entry array a as a spare if fewer than
// spareKeep are kept or a is larger than the smallest of them.
func (e *Engine) keepSpare(a []arrival) {
	if len(e.spares) < spareKeep {
		e.spares = append(e.spares, a)
		return
	}
	m := 0
	for i, s := range e.spares {
		if cap(s) < cap(e.spares[m]) {
			m = i
		}
	}
	if cap(a) > cap(e.spares[m]) {
		e.spares[m] = a
	}
}

// takeSpare moves the entries of the full batch b into a spare array with
// room for one more, if there is one.
func (e *Engine) takeSpare(b *batch) {
	if s := e.popSpare(len(b.ents) + 1); s != nil {
		b.ents = append(s, b.ents...)
	}
}

// popSpare removes and returns a spare array with room for n entries, or nil
// if there is none.
func (e *Engine) popSpare(n int) []arrival {
	for i, s := range e.spares {
		if cap(s) >= n {
			last := len(e.spares) - 1
			e.spares[i], e.spares[last] = e.spares[last], nil
			e.spares = e.spares[:last]
			return s
		}
	}
	return nil
}

// addArrival stamps the next tie-break sequence number on the delivery of
// b.pkts[pkt] to node at time at and appends it to b. A flood's batch that
// has no array (it gave a large one up) or outgrows batchKeep takes a spare
// first; an ingest sizes its batch up front instead (InjectRemote).
func (e *Engine) addArrival(b *batch, at float64, node graph.NodeID, pkt int32) {
	e.check(at)
	e.seq++
	if c := cap(b.ents); b.many && len(b.ents) == c && (c == 0 || c >= batchKeep) {
		e.takeSpare(b)
	}
	b.ents = append(b.ents, arrival{at: at, seq: e.seq, node: node, pkt: pkt})
}

// scheduleBatch sorts b's entries and puts b in the calendar as one event
// keyed at its first entry; an empty batch goes straight back to the pool.
func (e *Engine) scheduleBatch(b *batch) {
	if len(b.ents) == 0 {
		e.putBatch(b)
		return
	}
	e.sortArrivals(b.ents)
	first := &b.ents[0]
	e.pending += len(b.ents)
	heapPush(&e.pq, event{at: first.at, seq: first.seq, kind: evBatch, ref: e.batches.put(b)})
}

// sortRun is the block length the batch sort insertion-sorts before it
// merges.
const sortRun = 16

// sortArrivals sorts a batch's entries into the calendar's (at, seq) order.
// addArrival stamps them with ascending seq in slice order, so a sort on at
// that keeps equal instants in slice order is that order. A batch already in
// order costs one pass; otherwise blocks of sortRun entries are
// insertion-sorted, then merged bottom-up through the engine's scratch.
func (e *Engine) sortArrivals(a []arrival) {
	n := len(a)
	i := 1
	for i < n && a[i-1].at <= a[i].at {
		i++
	}
	if i == n {
		return
	}
	for lo := 0; lo < n; lo += sortRun {
		insertArrivals(a[lo:min(lo+sortRun, n)])
	}
	if n <= sortRun {
		return
	}
	buf := e.sortScratch(n)
	src, dst := a, buf
	for w := sortRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			mergeArrivals(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	if cap(buf) > batchKeep {
		e.keepSpare(buf[:0])
	}
}

// sortScratch returns scratch for sorting n entries: the engine's own array,
// which it keeps up to batchKeep entries, or beyond that a spare (see
// keepSpare), so a large group's floods do not pin a buffer of their own.
func (e *Engine) sortScratch(n int) []arrival {
	if n <= batchKeep {
		if e.sortBuf == nil {
			e.sortBuf = make([]arrival, batchKeep)
		}
		return e.sortBuf[:n]
	}
	if s := e.popSpare(n); s != nil {
		return s[:n]
	}
	return make([]arrival, n)
}

// insertArrivals insertion-sorts a on at, keeping equal instants in order.
func insertArrivals(a []arrival) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for j > 0 && a[j-1].at > x.at {
			a[j] = a[j-1]
			j--
		}
		a[j] = x
	}
}

// mergeArrivals merges the sorted runs x and y into dst, taking x's entry
// first on equal instants.
func mergeArrivals(dst, x, y []arrival) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j].at < x[i].at {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

// fireBatch runs the next entry of the batch at the top of the calendar.
// The batch takes its next entry's key (or leaves the calendar and goes back
// to the pool) before the receiver runs, so a receiver may schedule, stop
// timers and purge freely.
func (e *Engine) fireBatch() {
	top := &e.pq[0]
	ref := top.ref
	b := e.batches.slots[ref]
	a := b.ents[b.next]
	n, pkt := b.n, b.pkts[a.pkt]
	b.next++
	if b.next < len(b.ents) {
		ev := *top
		ev.at, ev.seq = b.ents[b.next].at, b.ents[b.next].seq
		siftDown(e.pq, 0, ev)
	} else {
		heapPop(&e.pq)
		e.batches.take(ref)
		e.putBatch(b)
	}
	n.Deliver(a.node, pkt)
}

// walkOp selects what a popped walker event does.
type walkOp uint8

const (
	// wPathStep advances a queued path walk one hop.
	wPathStep walkOp = iota
	// wFloodVisit delivers at a tree node and fans the queued flood out
	// over its remaining tree links.
	wFloodVisit
	// wSubtreeVisit delivers at a tree node and fans out to its children.
	wSubtreeVisit
)

// walker is the reusable state of one in-flight queued hop sequence. Fields
// are a union over the ops: node is always the next node to act at; via is
// the tree link a flood arrived on; path, idx and flood drive a path walk
// (its hops, the next one to take, and whether it ends in a subtree
// multicast).
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
