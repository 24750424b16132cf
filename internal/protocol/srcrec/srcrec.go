// Package srcrec implements the pure source-based recovery baseline: every
// detected loss is recovered with a unicast request to the source and a
// unicast repair back, retried on timeout. It is what RP degenerates to for
// a client with no useful peers, and serves as the ablation floor in the
// benchmark suite (the paper surveys source-based schemes in §1 and builds
// on its own earlier subgrouping work [4], which the RP engine's
// SubgroupRepair option models).
package srcrec

import (
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// retryFactor scales the retransmission timeout as a multiple of the
// client's RTT to the source.
const retryFactor = 3

// Engine is the source-recovery engine.
type Engine struct {
	s *protocol.Session
	// served suppresses duplicated requests at the source: a repeat of
	// (requester, seq) within half the requester's retry timeout is a
	// message-plane duplicate, not a retry, and is dropped unanswered.
	served *protocol.DedupCache
}

// dedupCacheSize bounds the served-request dedup cache (see
// protocol.DedupCache); eviction only ever re-serves a duplicate.
const dedupCacheSize = 4096

// request is the payload of a source-recovery request.
type request struct {
	Requester graph.NodeID
}

// New returns a source-recovery engine.
func New() *Engine {
	return &Engine{served: protocol.NewDedupCache(dedupCacheSize)}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string { return "SRC" }

// Attach implements protocol.Engine.
func (e *Engine) Attach(s *protocol.Session) { e.s = s }

// CloneForShard implements protocol.ShardCloner: the engine has no
// precomputed plans, so a shard clone is simply a fresh engine.
func (e *Engine) CloneForShard() protocol.Engine { return New() }

// OnDetect implements protocol.Engine. Monotonic guard: a packet the client
// already holds never (re-)opens a recovery, whatever duplicated or
// reordered signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	if !e.s.Missing(c, seq) {
		return
	}
	if r := e.s.Open(c, seq); r != nil {
		e.ask(c, r)
	}
}

// ask requests the packet from the source and arms the retry timer; a
// crashed owner parks instead.
func (e *Engine) ask(c graph.NodeID, r *protocol.Recovery) {
	if !e.s.Alive(c) {
		r.Parked = true
		return
	}
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: r.Seq, From: c, Payload: request{Requester: c},
	})
	r.Timer = e.s.Eng.NewTimer(retryFactor*e.s.Routes.RTT(c, e.s.Topo.Source), func() {
		if !r.Closed() && !r.Parked {
			e.retry(c, r)
		}
	})
}

// retry re-asks while the packet is still missing, and closes the recovery
// once it is not.
func (e *Engine) retry(c graph.NodeID, r *protocol.Recovery) {
	if e.s.Missing(c, r.Seq) {
		e.ask(c, r)
	} else {
		e.s.Close(c, r)
	}
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
		if !e.s.IsClient(pay.Requester) {
			e.s.NoteMalformed()
			return
		}
		// Retries are spaced retryFactor·RTT apart, so a repeat inside half
		// that window is a duplicated packet and is dropped unanswered.
		window := 0.5 * retryFactor * e.s.Routes.RTT(host, pay.Requester)
		if e.served.Seen(host, pay.Requester, pkt.Seq, e.s.Eng.Now(), window) {
			return
		}
		if !e.s.Has(host, pkt.Seq) {
			return
		}
		e.s.Net.Unicast(pay.Requester, sim.Packet{Kind: sim.Repair, Seq: pkt.Seq, From: host})
	case sim.Repair:
		if r := e.s.Recovery(host, pkt.Seq); r != nil {
			e.s.Close(host, r)
		}
	}
}

// PendingRecoveries reports in-flight recoveries (testing).
func (e *Engine) PendingRecoveries() int { return e.s.OpenRecoveries() }

// OnCrash implements protocol.FaultAware: park the crashed client's retries
// so a permanent crash cannot re-arm timers forever.
func (e *Engine) OnCrash(h graph.NodeID) { e.s.Park(h) }

// OnRecover implements protocol.FaultAware: re-issue the client's parked
// requests.
func (e *Engine) OnRecover(h graph.NodeID) {
	e.s.Resume(h, func(r *protocol.Recovery) { e.retry(h, r) })
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
