// Package rpproto implements the deployed form of the paper's contribution:
// the RP recovery protocol (§2.2). Each client holds the prioritized peer
// list computed by internal/core; on detecting a loss it unicasts a request
// to the first peer, falls through the list on per-attempt timeouts of
// core.DefaultTimeout, and lands on the source as the guaranteed last
// resort ("If the packet may not be recovered from v1 … vk, then u will
// recover it from S by default").
//
// The zero Options is the paper's engine. Each field switches on one
// variant of the engine table: the restricted strategy graph that forbids
// going to the source directly (§4), the source-subgroup multicast repair
// of §2.2/[4], an explicit-NAK extension that lets a peer reject a request
// immediately instead of letting it time out, the loss-aware planner, and
// the two hardened deployments (resilient.go, failover.go).
package rpproto

import (
	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Options selects an RP variant. The zero value is the paper's engine.
type Options struct {
	// Restricted plans with the restricted strategy graph (§4): the
	// planner never puts the source first (RP-NOSRC).
	Restricted bool
	// SubgroupRepair makes the source answer requests with a multicast to
	// the requester's subgroup subtree instead of a unicast (§2.2 / [4]).
	SubgroupRepair bool
	// NakReplies makes peers that lack a requested packet reply with an
	// explicit NAK so the requester advances without waiting for the
	// timeout. An extension beyond the paper (it assumes the timeout
	// mechanism); exposed for the ablation benchmarks.
	NakReplies bool
	// LossAware plans with the loss-aware model (core.Planner.LossProb set
	// to the network's mean link loss) instead of the paper's reliable-
	// network model — the extension discussed in internal/core/aware.go.
	LossAware bool
	// Resilient turns on the crash/churn hardening layer (resilient.go)
	// and renames the engine RP-RESILIENT.
	Resilient bool
	// Failover turns on the coordinated-RP mode with epoch-fenced
	// re-election (failover.go) and renames the engine RP-FAILOVER. It
	// takes precedence over Resilient: the two harden different
	// deployments and are not composed.
	Failover bool
}

// subgroupDepth is the tree depth of subgroup roots: a SubgroupRepair
// multicast covers the requester's top-level subtree.
const subgroupDepth int32 = 1

// Source-side request suppression under SubgroupRepair: a request for
// (seq, subgroup) arriving within subgroupSuppressFactor·RTT(source,
// requester) of the previous subgroup multicast for the same pair is
// ignored — the in-flight repair will serve it. This is the load reduction
// of reference [4] ("the recovery load on S may be reduced by grouping
// clients", §2.2).
const subgroupSuppressFactor = 1

// Engine is the RP protocol engine.
type Engine struct {
	opt Options
	s   *protocol.Session
	// strategies holds the attach-time plans indexed by NodeID (nil for
	// non-clients), the layout core.Roster uses.
	strategies []*core.Strategy
	// sharedPlans, when non-nil, is a parent engine's strategies adopted
	// verbatim by Attach — shard clones of a partitioned run skip
	// replanning and must never mutate the shared structs.
	sharedPlans []*core.Strategy
	// lastSubRepair records the send time of the latest subgroup repair
	// multicast per (seq, subgroup root), for source-side suppression.
	lastSubRepair map[key]float64
	// served suppresses duplicated requests: a (host, requester, seq)
	// request repeated within half the requester's retry timeout is a
	// message-plane duplicate, not a retry, and is dropped unanswered.
	served *protocol.DedupCache

	// Resilience state (see resilient.go). roster is non-nil only when
	// Resilient; it then holds the live plans in place of strategies, so
	// incremental replans are visible through Strategy.
	roster       *core.Roster
	suspectCount map[obs]int
	skipUntil    map[obs]float64
	dead         map[graph.NodeID]bool

	// Failover state (see failover.go). elect is non-nil only when
	// Failover; maxClaimed/claimant form the epoch registry (the
	// source-as-sequencer), the per-host maps each simulated host's view.
	elect        *core.Electorate
	initialRP    graph.NodeID
	claimant     graph.NodeID
	maxClaimed   int
	epochOf      map[graph.NodeID]int
	rpView       map[graph.NodeID]graph.NodeID
	interregnum  map[graph.NodeID]bool
	foDead       map[graph.NodeID]bool
	rpTimeouts   map[graph.NodeID]int
	promoteWatch map[graph.NodeID]*promoteState
}

// dedupCacheSize bounds the served-request dedup cache (see
// protocol.DedupCache); eviction only ever re-serves a duplicate.
const dedupCacheSize = 4096

// key names one (host, seq) pair.
type key struct {
	c   graph.NodeID
	seq int
}

// request is the payload of an RP recovery request.
type request struct {
	Requester graph.NodeID
}

// nak is the payload of an explicit "don't have it" reply (NakReplies).
type nak struct{}

// New returns an RP engine with the given options.
func New(opt Options) *Engine {
	return &Engine{
		opt:           opt,
		lastSubRepair: make(map[key]float64),
		served:        protocol.NewDedupCache(dedupCacheSize),
		suspectCount:  make(map[obs]int),
		skipUntil:     make(map[obs]float64),
		dead:          make(map[graph.NodeID]bool),
		initialRP:     graph.None,
		claimant:      graph.None,
		epochOf:       make(map[graph.NodeID]int),
		rpView:        make(map[graph.NodeID]graph.NodeID),
		interregnum:   make(map[graph.NodeID]bool),
		foDead:        make(map[graph.NodeID]bool),
		rpTimeouts:    make(map[graph.NodeID]int),
		promoteWatch:  make(map[graph.NodeID]*promoteState),
	}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string {
	if e.opt.Failover {
		return "RP-FAILOVER"
	}
	if e.opt.Resilient {
		return "RP-RESILIENT"
	}
	return "RP"
}

// CloneForShard implements protocol.ShardCloner: a fresh engine with the
// same options that adopts this (attached) engine's computed strategies
// instead of replanning — the plans are read-only at run time, so shard
// clones share them. The resilience layer is not shardable (its failure
// detector replans into a shared roster at run time), and neither is
// failover (election and the epoch registry are group-global run-time
// state); both force a one-shard (serial) run.
func (e *Engine) CloneForShard() protocol.Engine {
	if e.opt.Resilient || e.opt.Failover {
		return nil
	}
	cl := New(e.opt)
	cl.sharedPlans = e.strategies
	return cl
}

// Attach computes the strategies for every client with the core planner.
// In failover mode recovery routes through the coordinator instead of the
// per-client peer lists, so Attach bootstraps the electorate and the
// epoch-1 view instead of planning.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	if e.opt.Failover {
		e.initFailover()
		return
	}
	if e.sharedPlans != nil {
		e.strategies = e.sharedPlans
		return
	}
	p := core.NewPlanner(s.Tree, s.Routes)
	p.AllowDirectSource = !e.opt.Restricted
	if e.opt.LossAware {
		var sum float64
		for _, l := range s.Topo.Loss {
			sum += l
		}
		p.LossProb = sum / float64(len(s.Topo.Loss))
	}
	if e.opt.Resilient {
		e.roster = core.NewRoster(p)
		return
	}
	e.strategies = make([]*core.Strategy, len(s.Tree.Parent))
	for i, st := range p.PlanAllDense() {
		e.strategies[s.Tree.Clients[i]] = st
	}
}

// Strategy returns client c's current plan: the roster's live one in
// resilient mode, the attach-time one otherwise. nil for non-clients and
// evicted clients.
func (e *Engine) Strategy(c graph.NodeID) *core.Strategy {
	if e.roster != nil {
		return e.roster.Strategy(c)
	}
	if int(c) < 0 || int(c) >= len(e.strategies) {
		return nil
	}
	return e.strategies[c]
}

// OnDetect implements protocol.Engine: open the recovery at attempt 0.
// Monotonic guard: a packet the client already holds never (re-)opens a
// recovery, whatever duplicated or reordered signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	if !e.s.Missing(c, seq) {
		return
	}
	if r := e.s.Open(c, seq); r != nil {
		e.dispatchSend(c, r)
	}
}

// dispatchSend routes a fresh or resumed attempt through the mode's send
// path: coordinator-routed (failover) or peer-list walk.
func (e *Engine) dispatchSend(c graph.NodeID, r *protocol.Recovery) {
	if e.opt.Failover {
		e.foSend(c, r)
		return
	}
	e.send(c, r)
}

// send fires the request for the recovery's current peer-list index (Step;
// len(peers) means "at source") and arms the fall-through timer. A crashed
// owner parks instead (resumed by OnRecover); an owner whose strategy was
// evicted from the roster (a false-positive death declaration) falls back
// to source-only recovery.
func (e *Engine) send(c graph.NodeID, r *protocol.Recovery) {
	if !e.s.Alive(c) {
		r.Parked = true
		return
	}
	st := e.Strategy(c)
	var target graph.NodeID
	var t0 float64
	switch {
	case st == nil:
		target = e.s.Topo.Source
		t0 = core.DefaultTimeout.Timeout(e.s.Routes.RTT(c, e.s.Topo.Source))
	default:
		for r.Step < len(st.Peers) && e.skipPeer(c, st.Peers[r.Step].Peer) {
			r.Step++
			r.Retry = 0
		}
		if r.Step < len(st.Peers) {
			target = st.Peers[r.Step].Peer
			t0 = st.Peers[r.Step].Timeout
		} else {
			target = e.s.Topo.Source
			t0 = st.SourceTimeout
		}
	}
	e.s.Net.Unicast(target, sim.Packet{
		Kind: sim.Request, Seq: r.Seq, From: c, Payload: request{Requester: c},
	})
	r.Target = target
	r.Timer = e.s.Eng.NewTimer(e.attemptTimeout(t0, r.Retry), func() { e.timeout(c, r) })
}

// timeout retries the current peer while its budget lasts, then advances to
// the next attempt (the source attempt repeats forever, so recovery is
// guaranteed to terminate while the client is up).
func (e *Engine) timeout(c graph.NodeID, r *protocol.Recovery) {
	if r.Closed() || r.Parked {
		return // served, or owner crashed
	}
	if !e.s.Missing(c, r.Seq) {
		e.s.Close(c, r)
		return
	}
	e.noteTimeout(c, r.Target)
	atSource := r.Target == e.s.Topo.Source
	if e.opt.Resilient && (r.Retry < peerRetries || atSource) {
		r.Retry++ // retry the same target (backoff grows; capped)
	} else {
		r.Retry = 0
		e.nextPeer(c, r)
	}
	e.send(c, r)
}

// nextPeer moves the walk one peer down c's list (the source step repeats).
func (e *Engine) nextPeer(c graph.NodeID, r *protocol.Recovery) {
	if st := e.Strategy(c); st != nil && r.Step < len(st.Peers) {
		r.Step++
	}
}

// advance is the NAK fast path: the peer answered that it lacks the packet,
// so skip its remaining retry budget immediately (and clear any suspicion —
// an explicit reply is proof of life). Only a NAK from the peer the armed
// timer is actually waiting on advances the walk: a duplicated or delayed
// NAK from an earlier attempt must not double-advance past unasked peers.
func (e *Engine) advance(c graph.NodeID, seq int, from graph.NodeID) {
	r := e.s.Recovery(c, seq)
	if r == nil || r.Parked || from != r.Target || !r.Timer.Stop() {
		return
	}
	if !e.s.Missing(c, seq) {
		e.s.Close(c, r)
		return
	}
	e.clearSuspicion(c, r.Target)
	r.Retry = 0
	e.nextPeer(c, r)
	e.send(c, r)
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Request:
		switch pay := pkt.Payload.(type) {
		case request:
			if !e.s.IsClient(pay.Requester) {
				e.s.NoteMalformed()
				return
			}
			e.onRequest(host, pkt.Seq, pay.Requester)
		case nak:
			e.advance(host, pkt.Seq, pkt.From)
		case foRequest:
			if !e.opt.Failover || !e.s.IsClient(pay.Requester) || pay.Epoch < 1 {
				e.s.NoteMalformed()
				return
			}
			e.foOnRequest(host, pkt.Seq, pay)
		case foPromote:
			if !e.opt.Failover || pay.Epoch < 1 {
				e.s.NoteMalformed()
				return
			}
			e.foOnPromote(host, pay)
		case foAnnounce:
			if !e.opt.Failover || pay.Epoch < 1 {
				e.s.NoteMalformed()
				return
			}
			e.foOnAnnounce(host, pay)
		case foProbe:
			if !e.opt.Failover || !e.s.IsClient(pay.Requester) {
				e.s.NoteMalformed()
				return
			}
			e.foOnProbe(host, pay)
		default:
			e.s.NoteMalformed()
		}
	case sim.Repair:
		if r := e.s.Recovery(host, pkt.Seq); r != nil {
			e.s.Close(host, r)
		}
		e.clearSuspicion(host, pkt.From)
		if e.opt.Failover {
			// A served recovery is proof the coordinator path works again.
			e.rpTimeouts[host] = 0
		}
	}
}

// onRequest serves or declines one recovery request arriving at host. A
// repeat of the same (requester, seq) within half the requester's own retry
// timeout cannot be a retry — retries are spaced at least one full timeout
// apart — so it is dropped as a message-plane duplicate.
//
// A peer that lacks the packet but whose loss-free arrival time is still in
// the future holds the request until that instant and answers if the packet
// shows up. Without holding, a peer farther from the source than the
// requester could never serve fresh packets (they are still in transit when
// the request lands), which would silently disable deep-meet peers — a
// transit effect the paper's static model does not represent. Holding needs
// only peer-local knowledge (its own expected arrival time).
func (e *Engine) onRequest(host graph.NodeID, seq int, requester graph.NodeID) {
	window := 0.5 * core.DefaultTimeout.Timeout(e.s.Routes.RTT(host, requester))
	if e.served.Seen(host, requester, seq, e.s.Eng.Now(), window) {
		return
	}
	if !e.s.Has(host, seq) {
		if e.s.IsClient(host) {
			// The packet may still be in transit to us: hold the request
			// until our own expected arrival and re-decide.
			if eta := e.s.ExpectedArrival(host, seq); eta > e.s.Eng.Now() {
				e.s.Eng.Schedule(eta+2e-3, func() {
					e.onRequestHeld(host, seq, requester)
				})
				return
			}
		}
		e.declineRequest(host, seq, requester)
		return
	}
	if host == e.s.Topo.Source && e.opt.SubgroupRepair {
		sub := e.subgroupRoot(requester)
		sk := key{sub, seq}
		window := subgroupSuppressFactor * e.s.Routes.RTT(host, requester)
		if last, ok := e.lastSubRepair[sk]; ok && e.s.Eng.Now()-last < window {
			return // an in-flight subgroup repair already covers this
		}
		e.lastSubRepair[sk] = e.s.Eng.Now()
		e.s.Net.MulticastDescend(sub, sim.Packet{Kind: sim.Repair, Seq: seq, From: host})
		return
	}
	e.s.Net.Unicast(requester, sim.Packet{Kind: sim.Repair, Seq: seq, From: host})
}

// onRequestHeld re-decides a held request once the packet's arrival window
// has passed.
func (e *Engine) onRequestHeld(host graph.NodeID, seq int, requester graph.NodeID) {
	if e.s.Has(host, seq) {
		e.s.Net.Unicast(requester, sim.Packet{Kind: sim.Repair, Seq: seq, From: host})
		return
	}
	e.declineRequest(host, seq, requester)
}

// declineRequest is the terminal no-packet path: explicit NAK or silence.
func (e *Engine) declineRequest(host graph.NodeID, seq int, requester graph.NodeID) {
	if e.opt.NakReplies && e.s.IsClient(host) {
		e.s.Net.Unicast(requester, sim.Packet{
			Kind: sim.Request, Seq: seq, From: host, Payload: nak{},
		})
	}
}

// subgroupRoot returns the requester's ancestor at subgroupDepth (or the
// requester itself for very shallow clients).
func (e *Engine) subgroupRoot(requester graph.NodeID) graph.NodeID {
	t := e.s.Tree
	depth := t.Depth[requester]
	if depth <= subgroupDepth {
		return requester
	}
	return t.Ancestor(requester, depth-subgroupDepth)
}

// PendingRecoveries reports the number of in-flight recoveries (testing).
func (e *Engine) PendingRecoveries() int { return e.s.OpenRecoveries() }

// DedupCaches implements protocol.DedupAudited.
func (e *Engine) DedupCaches() []*protocol.DedupCache {
	return []*protocol.DedupCache{e.served}
}

var (
	_ protocol.Engine       = (*Engine)(nil)
	_ protocol.FaultAware   = (*Engine)(nil)
	_ protocol.DedupAudited = (*Engine)(nil)
)
