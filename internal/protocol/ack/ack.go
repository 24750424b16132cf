// Package ack implements the classic sender-initiated reliability baseline
// (Towsley, Kurose & Pingali, reference [21] of the paper: "A comparison of
// sender-initiated and receiver-initiated reliable multicast protocols"):
// every client positively acknowledges every data packet; the source tracks
// the ACK matrix and unicasts retransmissions to the clients whose ACKs are
// missing when the per-packet timer expires, doubling the timer each round.
//
// The paper's §1 explains why this loses at scale: the source carries the
// whole recovery load, and the per-packet, per-client ACK stream — counted
// here as request-plane hops — is the ACK implosion that server- and
// peer-based schemes (and RP) exist to avoid. The engine is included to
// complete the taxonomy and as the "maximum source load" endpoint in the
// benchmark suite.
package ack

import (
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

const (
	// ackDelay is the client-side delay between receiving a packet and
	// sending the ACK (ms), modelling processing/aggregation.
	ackDelay = 0.1
	// timeoutFactor scales the source's first retransmission timer as a
	// multiple of the farthest client's RTT; the timer doubles per round.
	timeoutFactor = 1.5
	// maxRounds caps retransmission rounds per (packet, client) before
	// the source gives up until the next external trigger (the cap only
	// matters on partitioned topologies; lossy runs converge earlier).
	maxRounds = 30
)

// Engine is the sender-initiated ACK engine.
type Engine struct {
	s *protocol.Session
	// acked[seq][node] marks clients whose ACK reached the source.
	acked [][]bool
	// maxRTT is the slowest client round trip, the base timeout.
	maxRTT float64
}

// ackPayload is a client's positive acknowledgement.
type ackPayload struct {
	Client graph.NodeID
}

// New returns an ACK engine.
func New() *Engine { return &Engine{} }

// Name implements protocol.Engine.
func (e *Engine) Name() string { return "ACK" }

// Attach schedules the client ACKs and the source's per-packet
// retransmission rounds.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	cfg := s.Config()
	e.acked = make([][]bool, cfg.Packets)
	for _, c := range s.Clients() {
		if rtt := s.Routes.RTT(c, s.Topo.Source); rtt > e.maxRTT {
			e.maxRTT = rtt
		}
	}
	for seq := 0; seq < cfg.Packets; seq++ {
		e.acked[seq] = make([]bool, s.Topo.NumNodes())
		sendAt := float64(seq) * cfg.Interval
		// Client ACKs: each client checks at its own expected arrival
		// (plus ackDelay) and acknowledges if it holds the packet; later
		// retransmissions are acknowledged from OnPacket.
		for _, c := range s.Clients() {
			c, seq := c, seq
			at := sendAt + s.Net.WouldArrive(c) + ackDelay + 2e-3
			s.Eng.Schedule(at, func() {
				if e.s.Has(c, seq) {
					e.sendAck(c, seq)
				}
			})
		}
		// Source retransmission rounds.
		seq := seq
		s.Eng.Schedule(sendAt+timeoutFactor*e.maxRTT, func() {
			e.round(seq, 1)
		})
	}
}

// sendAck unicasts a positive acknowledgement to the source. ACKs ride the
// request plane (they are control traffic) and are therefore visible in the
// request-hop accounting — the implosion cost.
func (e *Engine) sendAck(c graph.NodeID, seq int) {
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: seq, From: c, Payload: ackPayload{Client: c},
	})
}

// round retransmits seq to every unacknowledged client and reschedules with
// exponential backoff while any remain.
func (e *Engine) round(seq, n int) {
	src := e.s.Topo.Source
	missing := 0
	for _, c := range e.s.Clients() {
		if e.acked[seq][c] {
			continue
		}
		missing++
		e.s.Net.Unicast(c, sim.Packet{Kind: sim.Repair, Seq: seq, From: src})
	}
	if missing == 0 || n >= maxRounds {
		return
	}
	backoff := timeoutFactor * e.maxRTT * float64(int64(1)<<uint(min(n, 20)))
	e.s.Eng.After(backoff, func() { e.round(seq, n+1) })
}

// OnDetect implements protocol.Engine. Sender-initiated recovery has no
// receiver-side action: the source's ACK bookkeeping drives everything.
func (e *Engine) OnDetect(graph.NodeID, int) {}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Request:
		if pay, ok := pkt.Payload.(ackPayload); ok && host == e.s.Topo.Source {
			e.acked[pkt.Seq][pay.Client] = true
		}
	case sim.Repair:
		// A retransmission landed: acknowledge it (the session has
		// already recorded the recovery).
		if e.s.IsClient(host) && e.s.Has(host, pkt.Seq) && !e.acked[pkt.Seq][host] {
			e.s.Eng.After(ackDelay, func() { e.sendAck(host, pkt.Seq) })
		}
	}
}

var _ protocol.Engine = (*Engine)(nil)
