// Package fec implements a proactive parity-based recovery baseline in the
// style of the paper's reference [5] (Nonnenmacher, Biersack, Towsley,
// "Parity-Based Loss Recovery for Reliable Multicast Transmission"): the
// source groups data packets into blocks of K and multicasts R parity
// packets after each block; a client that misses up to R packets of a block
// decodes them locally as soon as it holds any K of the block's K+R
// symbols, with no recovery traffic at all. Losses beyond the parity budget
// fall back to unicast source requests.
//
// The trade-off against RP is the paper's taxonomy in action: FEC pays a
// fixed proactive data-plane overhead of R/K on every block (visible as
// extra Data hops, not recovery hops) to make the common-case recovery
// latency the wait for the block boundary rather than a peer round trip.
// Short blocks recover fast but cost more overhead.
//
// Parity symbols are modelled as opaque packets (an erasure code such as
// Reed–Solomon makes any K of K+R suffice; the simulation needs only the
// counting property, not the algebra).
package fec

import (
	"fmt"

	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

const (
	// blockK and blockR are the K and R of the package comment: 8 data
	// packets and 2 parity packets per block, 25% proactive overhead.
	blockK = 8
	blockR = 2
	// retryFactor scales the fallback retransmission timeout as a
	// multiple of the client's RTT to the source.
	retryFactor = 3
	// slack is extra waiting (ms) after a block's parity should have
	// arrived before declaring decode impossible and falling back.
	slack = 5
)

// Engine is the FEC protocol engine.
type Engine struct {
	s *protocol.Session
	// paritySeen counts parity symbols held per (client, block).
	paritySeen map[key]int
}

// key names one (client, block) pair.
type key struct {
	c graph.NodeID
	b int
}

// parity is the payload of a parity packet; Block identifies the group.
type parity struct {
	Block int
	Index int
}

// request is the payload of a fallback source request.
type request struct {
	Requester graph.NodeID
}

// New returns an FEC engine.
func New() *Engine { return &Engine{paritySeen: make(map[key]int)} }

// Name implements protocol.Engine.
func (e *Engine) Name() string { return fmt.Sprintf("FEC(%d,%d)", blockK, blockR) }

// Attach schedules the proactive parity multicasts: R parity packets right
// after each block's last data packet. Parity travels the data plane (it is
// subject to loss like data) with negative sequence numbers so the session
// routes it back to this engine.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	cfg := s.Config()
	src := s.Topo.Source
	blocks := (cfg.Packets + blockK - 1) / blockK
	for b := 0; b < blocks; b++ {
		lastSeq := (b+1)*blockK - 1
		if lastSeq >= cfg.Packets {
			lastSeq = cfg.Packets - 1
		}
		at := float64(lastSeq)*cfg.Interval + 1e-3
		b := b
		for i := 0; i < blockR; i++ {
			i := i
			s.Eng.Schedule(at, func() {
				s.Net.MulticastFromSource(sim.Packet{
					Kind: sim.Data, Seq: -(b + 1), From: src,
					Payload: parity{Block: b, Index: i},
				})
			})
		}
	}
}

// block returns the block number of a data sequence.
func (e *Engine) block(seq int) int { return seq / blockK }

// blockSeqs returns the data sequence range [lo, hi) of a block, clamped to
// the stream length.
func (e *Engine) blockSeqs(b int) (int, int) {
	lo := b * blockK
	hi := lo + blockK
	if n := e.s.Config().Packets; hi > n {
		hi = n
	}
	return lo, hi
}

// decodable reports whether client c holds at least K of block b's symbols
// (data it received or recovered, plus parity), i.e. whether an erasure
// code would reconstruct the rest. For a tail block shorter than K, the
// block length replaces K.
func (e *Engine) decodable(c graph.NodeID, b int) bool {
	lo, hi := e.blockSeqs(b)
	need := hi - lo
	have := e.paritySeen[key{c, b}]
	for seq := lo; seq < hi; seq++ {
		if e.s.Has(c, seq) {
			have++
		}
	}
	return have >= need
}

// tryDecode recovers every outstanding loss of block b at client c if the
// block is decodable now.
func (e *Engine) tryDecode(c graph.NodeID, b int) {
	if !e.decodable(c, b) {
		return
	}
	lo, hi := e.blockSeqs(b)
	for seq := lo; seq < hi; seq++ {
		if e.s.Missing(c, seq) {
			e.s.RecoverLocal(c, seq)
			e.cancel(c, seq)
		}
	}
}

// cancel closes client c's fallback for seq, if one is open.
func (e *Engine) cancel(c graph.NodeID, seq int) {
	if r := e.s.Recovery(c, seq); r != nil {
		e.s.Close(c, r)
	}
}

// OnDetect implements protocol.Engine: wait for the block's parity; if the
// block cannot be decoded by then, fall back to the source.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	b := e.block(seq)
	e.tryDecode(c, b)
	if !e.s.Missing(c, seq) {
		return
	}
	cfg := e.s.Config()
	_, hi := e.blockSeqs(b)
	parityArrive := float64(hi-1)*cfg.Interval + e.s.Net.WouldArrive(c) + slack
	wait := parityArrive - e.s.Eng.Now()
	if wait < 0 {
		wait = 0
	}
	if r := e.s.Open(c, seq); r != nil {
		r.Timer = e.s.Eng.NewTimer(wait+1e-3, func() { e.fallback(c, r) })
	}
}

// fallback asks the source directly (and keeps retrying).
func (e *Engine) fallback(c graph.NodeID, r *protocol.Recovery) {
	if e.s.Missing(c, r.Seq) {
		// One more decode attempt — parity may have landed since.
		e.tryDecode(c, e.block(r.Seq))
	}
	if !e.s.Missing(c, r.Seq) {
		e.s.Close(c, r)
		return
	}
	if !e.s.Alive(c) {
		// Crashed mid-cycle: park rather than re-arm, OnRecover resumes.
		r.Parked = true
		return
	}
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: r.Seq, From: c, Payload: request{Requester: c},
	})
	retry := retryFactor * e.s.Routes.RTT(c, e.s.Topo.Source)
	r.Timer = e.s.Eng.NewTimer(retry, func() { e.fallback(c, r) })
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Data:
		// Parity arrival.
		pay, ok := pkt.Payload.(parity)
		if !ok || !e.s.IsClient(host) {
			return
		}
		e.paritySeen[key{host, pay.Block}]++
		e.tryDecode(host, pay.Block)
	case sim.Request:
		pay, ok := pkt.Payload.(request)
		if !ok || !e.s.Has(host, pkt.Seq) {
			return
		}
		e.s.Net.Unicast(pay.Requester, sim.Packet{Kind: sim.Repair, Seq: pkt.Seq, From: host})
	case sim.Repair:
		e.cancel(host, pkt.Seq)
	}
}

// OnCrash implements protocol.FaultAware: stop the crashed client's
// fallback timers and park them, so a permanent crash cannot keep the event
// loop alive with retries that can never be answered.
func (e *Engine) OnCrash(h graph.NodeID) { e.s.Park(h) }

// OnRecover implements protocol.FaultAware: resume parked fallbacks in
// sequence order (deterministic), decoding first where parity already
// suffices. A decode can close later parked fallbacks of the same block,
// which the table's walk then skips.
func (e *Engine) OnRecover(h graph.NodeID) {
	e.s.Resume(h, func(r *protocol.Recovery) { e.fallback(h, r) })
}

// PendingRecoveries reports outstanding fallbacks (testing).
func (e *Engine) PendingRecoveries() int { return e.s.OpenRecoveries() }

var (
	_ protocol.Engine     = (*Engine)(nil)
	_ protocol.FaultAware = (*Engine)(nil)
)
