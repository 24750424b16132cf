// Package rma implements the RMA baseline (Levine & Garcia-Luna-Aceves,
// reference [19] of the paper): a receiver that lost a packet "attempts to
// achieve the shortest delay from the nearest upstream receiver that has
// received the packet", asking upstream receivers one by one — nearest
// (deepest meet router) first — and the first receiver that holds the
// packet multicasts the repair to the subtree rooted at its meet router
// with the requester, "the subtree that contains all the receivers that
// have been requested".
//
// RMA fits the paper's generic recovery description (§1, §2.2): a
// prioritized list walked one-by-one with per-attempt timeout detection.
// Its list is simply the complete upstream-receiver order; RP's entire
// advantage is replacing that naive order with the optimized sublist from
// the strategy graph. As the paper puts it, RMA's "one-by-one searching is
// just best-effort, not strategic": when the loss sits high in the tree,
// every nearby receiver has lost the packet too, and RMA burns one timeout
// per hopeless neighbour before reaching a holder.
//
// The engine shares RP's per-attempt timeout (core.DefaultTimeout) and
// request holding, so the comparison isolates list construction. A
// repairer ignores further requests for a packet whose meet router is
// already covered by a recent repair multicast it sent — the paper's
// semantics that one repair serves "all the receivers that have been
// requested".
package rma

import (
	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Engine is the RMA protocol engine.
type Engine struct {
	s *protocol.Session
	// chain is the per-client full upstream receiver order (descending
	// meet depth — nearest upstream first), indexed by NodeID (nil for
	// non-clients).
	chain [][]core.Candidate
	// repaired records, per (repairer, seq), the root and time of the
	// last repair multicast, for repairer-side suppression.
	repaired map[key]repairMark
	// diameter bounds how long an in-flight repair can take to arrive.
	diameter float64
	// sharedChain/sharedDiameter, when set, are a parent engine's plans
	// adopted verbatim by Attach (shard clones of a partitioned run); the
	// chains are read-only at run time.
	sharedChain    [][]core.Candidate
	sharedDiameter float64
	// served suppresses duplicated requests: a repeat of (requester, seq)
	// within half the requester's retry timeout is a message-plane
	// duplicate, not a walk advance, and is dropped unanswered.
	served *protocol.DedupCache
}

// dedupCacheSize bounds the served-request dedup cache (see
// protocol.DedupCache); eviction only ever re-serves a duplicate.
const dedupCacheSize = 4096

type repairMark struct {
	root graph.NodeID
	at   float64
}

// key names one (repairer, seq) pair.
type key struct {
	c   graph.NodeID
	seq int
}

// request is the payload of an RMA recovery request.
type request struct {
	Requester graph.NodeID
	// MinDS is the shallowest meet depth among the receivers already
	// asked (including the addressee), telling the source how large a
	// subtree its repair must cover.
	MinDS int32
}

// New returns an RMA engine.
func New() *Engine {
	return &Engine{
		repaired: make(map[key]repairMark),
		served:   protocol.NewDedupCache(dedupCacheSize),
	}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string { return "RMA" }

// CloneForShard implements protocol.ShardCloner: a fresh engine that
// adopts this (attached) engine's receiver chains and diameter — both
// read-only at run time — instead of recomputing them.
func (e *Engine) CloneForShard() protocol.Engine {
	cl := New()
	cl.sharedChain = e.chain
	cl.sharedDiameter = e.diameter
	return cl
}

// Attach precomputes every client's upstream receiver chain.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	if e.sharedChain != nil {
		e.chain = e.sharedChain
		e.diameter = e.sharedDiameter
		return
	}
	p := core.NewPlanner(s.Tree, s.Routes)
	e.chain = make([][]core.Candidate, len(s.Tree.Parent))
	var deep float64
	for _, c := range s.Clients() {
		// Candidates are already one-per-class in descending DS order —
		// exactly RMA's nearest-upstream-first walk, un-pruned.
		e.chain[c] = p.Candidates(c)
		if d := s.Tree.DelayFromRoot[c]; d > deep {
			deep = d
		}
	}
	e.diameter = 2 * deep
}

// OnDetect implements protocol.Engine: start at the nearest upstream
// receiver. Monotonic guard: a packet the client already holds never
// (re-)opens a walk, whatever duplicated or reordered signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	if !e.s.Missing(c, seq) {
		return
	}
	if r := e.s.Open(c, seq); r != nil {
		e.send(c, r)
	}
}

// send fires the request for the walk's current chain position (Step;
// len(chain) means "at source") and arms the fall-through timer.
func (e *Engine) send(c graph.NodeID, r *protocol.Recovery) {
	if !e.s.Alive(c) {
		r.Parked = true
		return
	}
	chain := e.chain[c]
	var target graph.NodeID
	var t0 float64
	minDS := e.s.Tree.Depth[c] - 1
	if r.Step < len(chain) {
		target = chain[r.Step].Peer
		t0 = chain[r.Step].Timeout
		minDS = chain[r.Step].DS
	} else {
		target = e.s.Topo.Source
		srcRTT := e.s.Routes.RTT(c, target)
		t0 = core.DefaultTimeout.Timeout(srcRTT)
		if len(chain) > 0 {
			minDS = chain[len(chain)-1].DS
		}
	}
	e.s.Net.Unicast(target, sim.Packet{
		Kind: sim.Request, Seq: r.Seq, From: c,
		Payload: request{Requester: c, MinDS: minDS},
	})
	r.Timer = e.s.Eng.NewTimer(t0, func() { e.expire(c, r) })
}

// expire advances to the next upstream receiver (the source attempt repeats
// until recovery).
func (e *Engine) expire(c graph.NodeID, r *protocol.Recovery) {
	if r.Closed() || r.Parked {
		return
	}
	if !e.s.Missing(c, r.Seq) {
		e.s.Close(c, r)
		return
	}
	if r.Step < len(e.chain[c]) {
		r.Step++
	}
	e.send(c, r)
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Request:
		pay, ok := pkt.Payload.(request)
		if !ok {
			e.s.NoteMalformed()
			return
		}
		// A forged requester or a MinDS deeper than the requester's own
		// depth would drive Ancestor out of range at the source.
		if !e.s.IsClient(pay.Requester) || pay.MinDS > e.s.Tree.Depth[pay.Requester] {
			e.s.NoteMalformed()
			return
		}
		// Duplicate suppression: retries from one requester are spaced at
		// least a full attempt timeout apart, so a repeat inside half that
		// window is a duplicated packet, not a walk advance.
		window := 0.5 * core.DefaultTimeout.Timeout(e.s.Routes.RTT(host, pay.Requester))
		if e.served.Seen(host, pay.Requester, pkt.Seq, e.s.Eng.Now(), window) {
			return
		}
		if e.s.Has(host, pkt.Seq) {
			e.repair(host, pkt.Seq, pay)
			return
		}
		if e.s.IsClient(host) {
			if eta := e.s.ExpectedArrival(host, pkt.Seq); eta > e.s.Eng.Now() {
				seq, p2 := pkt.Seq, pay
				e.s.Eng.Schedule(eta+2e-3, func() {
					if e.s.Has(host, seq) {
						e.repair(host, seq, p2)
					}
				})
				return
			}
		}
		// A receiver without the packet stays silent; the requester's
		// timeout advances the walk.
	case sim.Repair:
		if r := e.s.Recovery(host, pkt.Seq); r != nil {
			e.s.Close(host, r)
		}
	}
}

// repair multicasts the lost packet over the subtree containing the
// requester and every receiver already asked, unless a recent repair from
// this host already covers that subtree.
func (e *Engine) repair(host graph.NodeID, seq int, pay request) {
	if !e.s.Alive(host) {
		// Possible via a held request whose hold expires inside the crash
		// window: the multicast would be silently suppressed, so return
		// before the suppression mark claims a repair that never flew.
		return
	}
	t := e.s.Tree
	var root graph.NodeID
	if host == e.s.Topo.Source {
		minDS := pay.MinDS
		if minDS < 1 {
			root = t.Root
		} else {
			root = t.Ancestor(pay.Requester, t.Depth[pay.Requester]-minDS)
		}
	} else {
		root = t.LCA(host, pay.Requester)
	}
	k := key{host, seq}
	if m, ok := e.repaired[k]; ok && e.s.Eng.Now()-m.at < e.diameter &&
		(m.root == root || t.IsAncestor(m.root, root)) {
		return // the in-flight repair already covers this requester
	}
	e.repaired[k] = repairMark{root: root, at: e.s.Eng.Now()}
	pkt := sim.Packet{Kind: sim.Repair, Seq: seq, From: host}
	switch {
	case root == t.Root && host == e.s.Topo.Source:
		e.s.Net.MulticastFromSource(pkt)
	case host == e.s.Topo.Source:
		e.s.Net.MulticastDescend(root, pkt)
	default:
		e.s.Net.MulticastSubtree(root, pkt)
	}
}

// PendingRecoveries reports in-flight walks (testing).
func (e *Engine) PendingRecoveries() int { return e.s.OpenRecoveries() }

// OnCrash implements protocol.FaultAware: park the crashed client's walks so
// a permanent crash cannot re-arm timers forever.
func (e *Engine) OnCrash(h graph.NodeID) { e.s.Park(h) }

// OnRecover implements protocol.FaultAware: resume the client's parked walks
// where they left off.
func (e *Engine) OnRecover(h graph.NodeID) {
	e.s.Resume(h, func(r *protocol.Recovery) { e.send(h, r) })
}

// DedupCaches implements protocol.DedupAudited.
func (e *Engine) DedupCaches() []*protocol.DedupCache {
	return []*protocol.DedupCache{e.served}
}

var (
	_ protocol.Engine       = (*Engine)(nil)
	_ protocol.FaultAware   = (*Engine)(nil)
	_ protocol.DedupAudited = (*Engine)(nil)
)
