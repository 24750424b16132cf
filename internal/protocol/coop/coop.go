// Package coop implements COOP, the cooperative coded repair engine — the
// fifth protocol, grounded in coopcast-style symbol relay (libunison /
// RaptorQ) and "Cooperative Data Exchange with Unreliable Clients": loss
// detection triggers block-level symbol solicitation instead of per-seq
// requests.
//
// The data stream is viewed as blocks of K = 8 packets protected by R = 4
// coded symbols (a counting-property erasure code, like the FEC baseline:
// any K distinct symbols of the K+R symbol space reconstruct the block).
// When a client detects any loss inside a block it solicits its
// strategy-ranked peers, two per round — the same core.Planner/PlanAllDense
// candidate lists RP plans with — each peer being assigned a disjoint,
// deterministically derived coded symbol range, so two peers never relay the
// same symbol and a duplicated solicitation reproduces byte-identical symbol
// traffic (structural idempotency; the session's per-(client, block) symbol
// bitmask absorbs redundant copies the way the request engines' DedupCache
// absorbs duplicated requests). A peer holding the whole block re-encodes
// and relays coded symbols from its assigned range; a peer holding only part
// of it relays the systematic symbols (data verbatim) the requester lacks; a
// peer still expecting the block's data holds the solicitation until the
// block has streamed past, then decides. The client decodes as soon as its
// block rank — data held plus distinct coded symbols — reaches the block
// length. Only when every ranked peer has been exhausted does the client
// fall back to unicast solicitation of the source (counted, bounded, and
// asserted zero for recoverable bursts in the tests): per-block loss bursts
// of up to R packets are recovered entirely from peers.
//
// There is no request/repair pairing for the adversarial message plane to
// mutate: duplicated and reordered symbols are absorbed by set semantics,
// and corrupted symbols (flipped index, truncated payload) fail domain
// validation and count as malformed. Each block recovery lives in the
// session's recovery table (keyed by block number), so crash and reboot
// park and resume it in block order like every other request engine.
package coop

import (
	"math/bits"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

const (
	// blockK and blockR are the K and R of the package comment. Each is
	// at most 64, so a block's data and coded masks fit one word each.
	blockK = 8
	blockR = 4
	// fanout is the number of peers solicited per round; the round's
	// coded range [0, R) is partitioned across them.
	fanout = 2
	// retryFactor scales each round's timeout as a multiple of the
	// largest solicited-peer RTT.
	retryFactor = 3
	// slack is the extra margin (ms) added to every round timeout.
	slack = 5
)

// dedupCacheSize bounds the served-solicitation dedup cache.
const dedupCacheSize = 4096

// holdEps orders a held solicitation's re-decision after the block's final
// same-instant data delivery.
const holdEps = 2e-3

// Engine is the cooperative coded repair engine.
type Engine struct {
	s *protocol.Session
	// peers are the per-client ranked relay lists, immutable after
	// Attach: the client's optimal strategy peers (core.Planner,
	// Algorithm 1) first, then the remaining candidate classes in the
	// planner's DS order. The extension matters: on shallow topologies
	// Algorithm 1 legitimately returns an empty peer list (asking the
	// source is latency-optimal), but COOP's objective is source
	// offload, so every competitive class is tried before the source.
	// The lists are indexed by NodeID (nil for non-clients). sharedPeers,
	// when non-nil, is a parent engine's lists adopted verbatim by shard
	// clones (never mutated).
	peers       [][]core.Candidate
	sharedPeers [][]core.Candidate
	// served suppresses duplicated solicitations at the relay: a repeat
	// of (requester, block) within half the retry window is a message-
	// plane duplicate, not a retry, and is dropped unanswered.
	served *protocol.DedupCache
	// sourceFallbacks counts solicitation rounds directed at the source —
	// the bounded last resort, zero whenever ranked peers can cover the
	// block (asserted by the burst-envelope test).
	sourceFallbacks int64
}

// solicit is the payload of a block solicitation: the requester's current
// holdings (so relays skip known symbols) and the disjoint coded range
// [Lo, Hi) assigned to the addressed peer.
type solicit struct {
	Requester graph.NodeID
	Block     int32
	// Have is the systematic mask: bit i set means the requester holds
	// data sequence Block·K+i. Coded is the coded-index mask.
	Have   uint64
	Coded  uint64
	Lo, Hi int32
}

// New returns a COOP engine.
func New() *Engine {
	return &Engine{served: protocol.NewDedupCache(dedupCacheSize)}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string { return "COOP" }

// Attach implements protocol.Engine: enable the session's coded-recovery
// mode (which arms the oracle's coded classification) and plan the ranked
// peer lists.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	if err := s.EnableCodedRecovery(blockK, blockR); err != nil {
		panic("coop: " + err.Error())
	}
	if e.sharedPeers != nil {
		e.peers = e.sharedPeers
		return
	}
	p := core.NewPlanner(s.Tree, s.Routes)
	plans := p.PlanAllDense()
	e.peers = make([][]core.Candidate, len(s.Tree.Parent))
	for i, c := range s.Tree.Clients {
		list := append([]core.Candidate(nil), plans[i].Peers...)
		in := make(map[graph.NodeID]bool)
		for _, cand := range plans[i].Peers {
			in[cand.Peer] = true
		}
		for _, cand := range p.Candidates(c) {
			if !in[cand.Peer] {
				list = append(list, cand)
			}
		}
		e.peers[c] = list
	}
}

// CloneForShard implements protocol.ShardCloner. COOP is eligible for the
// conservative parallel engine by the same argument as RP: it draws no
// protocol-side randomness (solicitation targets, symbol ranges, and
// timeouts are pure functions of the immutable plans), so shard clones
// sharing the parent's strategy map reproduce the serial run bit-for-bit —
// pinned by the parallel golden-digest tests. Configurations outside the
// parallel envelope (queueing, mutation, …) still fall back to serial
// automatically; -simworkers is always safe.
func (e *Engine) CloneForShard() protocol.Engine {
	cl := New()
	cl.sharedPeers = e.peers
	return cl
}

// OnDetect implements protocol.Engine: the first detected loss inside a
// block opens its recovery, keyed by block number; further detections in
// the same block ride the solicitation already in flight. Monotonic guard:
// a packet the client already holds never opens a recovery, whatever
// duplicated or reordered signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	if !e.s.Missing(c, seq) {
		return
	}
	if rec := e.s.Open(c, seq/blockK); rec != nil {
		e.solicitRound(c, rec)
	}
}

// solicitRound sends one round (rec.Step) of solicitations for block
// rec.Seq: the next fanout ranked peers, each assigned a disjoint slice of
// the coded range [0, R); with the peer list exhausted, the source (which
// can supply everything).
func (e *Engine) solicitRound(c graph.NodeID, rec *protocol.Recovery) {
	if !e.s.Alive(c) {
		rec.Parked = true
		return
	}
	if e.tryFinish(c, rec) {
		return
	}
	b := rec.Seq
	lo, hi := e.s.BlockBounds(b)
	if eta := e.s.ExpectedArrival(c, hi-1); eta > e.s.Eng.Now() {
		// The block is still streaming: a solicitation now would ask
		// relays — and the oracle — to repair data the source has not
		// even sent yet, and would carry a stale Have mask. Hold until
		// the block has streamed past, then re-decide (the surviving
		// tail may have closed the gap or raised the rank already).
		rec.Timer = e.s.Eng.NewTimer(eta-e.s.Eng.Now()+holdEps, func() {
			if !rec.Closed() && !rec.Parked {
				e.solicitRound(c, rec)
			}
		})
		return
	}
	var have uint64
	repSeq := lo // representative in-range header seq: first missing
	for seq, first := lo, true; seq < hi; seq++ {
		if e.s.Has(c, seq) {
			have |= 1 << uint(seq-lo)
		} else if first {
			repSeq, first = seq, false
		}
	}
	sol := solicit{
		Requester: c, Block: int32(b),
		Have: have, Coded: e.s.CodedHeld(c, b),
	}
	peers := e.peers[c]
	start := rec.Step * fanout
	var maxTO float64
	if start < len(peers) {
		end := min(start+fanout, len(peers))
		targets := peers[start:end]
		nt := len(targets)
		for i, cand := range targets {
			// Disjoint deterministic ranges partitioning [0, R): the
			// assignment is a pure function of the peer's rank, so a
			// duplicated solicitation is structurally idempotent.
			sol.Lo = int32(i * blockR / nt)
			sol.Hi = int32((i + 1) * blockR / nt)
			e.s.Net.Unicast(cand.Peer, sim.Packet{
				Kind: sim.Request, Seq: repSeq, From: c, Payload: sol,
			})
			if to := retryFactor * e.s.Routes.RTT(c, cand.Peer); to > maxTO {
				maxTO = to
			}
		}
	} else {
		src := e.s.Topo.Source
		e.sourceFallbacks++
		sol.Lo, sol.Hi = 0, blockR
		e.s.Net.Unicast(src, sim.Packet{
			Kind: sim.Request, Seq: repSeq, From: c, Payload: sol,
		})
		maxTO = retryFactor * e.s.Routes.RTT(c, src)
	}
	// The block has already streamed past the requester, but a relay
	// deeper in the tree may still be expecting it (and holds the
	// solicitation until then) — the retryFactor'd round trip plus slack
	// covers that skew.
	rec.Timer = e.s.Eng.NewTimer(maxTO+slack, func() {
		if rec.Closed() || rec.Parked || e.tryFinish(c, rec) {
			return
		}
		rec.Step++
		e.solicitRound(c, rec)
	})
}

// tryFinish closes the block's recovery if it is complete — decoding first
// when the symbol rank suffices. Returns whether the record was retired.
func (e *Engine) tryFinish(c graph.NodeID, rec *protocol.Recovery) bool {
	b := rec.Seq
	lo, hi := e.s.BlockBounds(b)
	complete := true
	for seq := lo; seq < hi; seq++ {
		if !e.s.Has(c, seq) {
			complete = false
			break
		}
	}
	if !complete && e.s.BlockRank(c, b) >= hi-lo {
		e.s.DecodeBlock(c, b)
		complete = true
	}
	if !complete {
		return false
	}
	e.s.Close(c, rec)
	return true
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Request:
		sol, ok := pkt.Payload.(solicit)
		if !ok {
			e.s.NoteMalformed()
			return
		}
		if !e.s.IsClient(sol.Requester) || int(sol.Block) < 0 ||
			int(sol.Block) >= e.s.CodedBlocks() ||
			sol.Lo < 0 || sol.Hi < sol.Lo || sol.Hi > blockR {
			e.s.NoteMalformed()
			return
		}
		// Block-level duplicate suppression, keyed by block number.
		window := 0.5 * retryFactor * e.s.Routes.RTT(host, sol.Requester)
		if e.served.Seen(host, sol.Requester, int(sol.Block), e.s.Eng.Now(), window) {
			return
		}
		e.respond(host, sol)
	case sim.Repair:
		// The session has already validated the symbol and updated the
		// ground truth (data for systematic, rank for coded); the engine
		// only checks whether the block is now recoverable.
		sym, ok := pkt.Payload.(sim.Symbol)
		if !ok {
			return
		}
		if rec := e.s.Recovery(host, int(sym.Block)); rec != nil {
			e.tryFinish(host, rec)
		}
	}
}

// respond answers one solicitation at relay host. The source re-encodes
// anything; a peer with the whole block re-encodes its assigned coded
// range; a peer with part of it relays the systematic symbols the
// requester lacks; a peer still expecting the block's data holds the
// decision until the block has streamed past.
func (e *Engine) respond(host graph.NodeID, sol solicit) {
	b := int(sol.Block)
	lo, hi := e.s.BlockBounds(b)
	bl := hi - lo
	if host != e.s.Topo.Source {
		full := true
		for seq := lo; seq < hi; seq++ {
			if !e.s.Has(host, seq) {
				full = false
				break
			}
		}
		if !full {
			if eta := e.s.ExpectedArrival(host, hi-1); eta > e.s.Eng.Now() {
				e.s.Eng.Schedule(eta+holdEps, func() { e.respond(host, sol) })
				return
			}
			// Partial holder: systematic relay of what the requester
			// lacks, capped at the assigned range's budget.
			budget := int(sol.Hi - sol.Lo)
			for i := 0; i < bl && budget > 0; i++ {
				if sol.Have&(1<<uint(i)) != 0 || !e.s.Has(host, lo+i) {
					continue
				}
				e.sendSymbol(host, sol.Requester, b, i, lo)
				budget--
			}
			return
		}
		// Full holder: coded symbols from the assigned disjoint range,
		// minus what the requester already reports.
		for j := int(sol.Lo); j < int(sol.Hi); j++ {
			if sol.Coded&(1<<uint(j)) == 0 {
				e.sendSymbol(host, sol.Requester, b, blockK+j, lo)
			}
		}
		return
	}
	// Source: assigned coded range first, then enough systematic symbols
	// to guarantee the decode even when the burst exceeded R.
	rank := bits.OnesCount64(sol.Coded | rangeMask(sol.Lo, sol.Hi))
	for i := 0; i < bl; i++ {
		if sol.Have&(1<<uint(i)) != 0 {
			rank++
		}
	}
	for j := int(sol.Lo); j < int(sol.Hi); j++ {
		if sol.Coded&(1<<uint(j)) == 0 {
			e.sendSymbol(host, sol.Requester, b, blockK+j, lo)
		}
	}
	need := bl - rank
	for i := 0; i < bl && need > 0; i++ {
		if sol.Have&(1<<uint(i)) != 0 {
			continue
		}
		e.sendSymbol(host, sol.Requester, b, i, lo)
		need--
	}
}

// rangeMask returns the bitmask with bits [lo, hi) set.
func rangeMask(lo, hi int32) uint64 {
	var m uint64
	for j := lo; j < hi; j++ {
		m |= 1 << uint(j)
	}
	return m
}

// sendSymbol unicasts one symbol of block b to the requester. Systematic
// symbols carry their data sequence in the header; coded symbols carry the
// block's first sequence as the in-range representative.
func (e *Engine) sendSymbol(from, to graph.NodeID, b, index, lo int) {
	seq := lo
	if index < blockK {
		seq = lo + index
	}
	e.s.Net.Unicast(to, sim.Packet{
		Kind: sim.Repair, Seq: seq, From: from,
		Payload: sim.Symbol{Block: int32(b), Index: int32(index)},
	})
}

// OnCrash implements protocol.FaultAware: park the crashed client's block
// recoveries so a permanent crash cannot re-arm timers forever.
func (e *Engine) OnCrash(h graph.NodeID) { e.s.Park(h) }

// OnRecover implements protocol.FaultAware: resume the client's parked
// block recoveries in block order (deterministic — sends draw from the
// shared rng streams).
func (e *Engine) OnRecover(h graph.NodeID) {
	e.s.Resume(h, func(rec *protocol.Recovery) {
		if !e.tryFinish(h, rec) {
			e.solicitRound(h, rec)
		}
	})
}

// PendingRecoveries reports in-flight block recoveries (testing).
func (e *Engine) PendingRecoveries() int { return e.s.OpenRecoveries() }

// SourceFallbacks reports how many solicitation rounds had to fall back to
// the source — zero whenever ranked peers covered every loss burst.
func (e *Engine) SourceFallbacks() int64 { return e.sourceFallbacks }

// DedupCaches implements protocol.DedupAudited.
func (e *Engine) DedupCaches() []*protocol.DedupCache {
	return []*protocol.DedupCache{e.served}
}

var (
	_ protocol.Engine       = (*Engine)(nil)
	_ protocol.FaultAware   = (*Engine)(nil)
	_ protocol.DedupAudited = (*Engine)(nil)
	_ protocol.ShardCloner  = (*Engine)(nil)
)
