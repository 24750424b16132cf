// Package rpproto implements the deployed form of the paper's contribution:
// the RP recovery protocol (§2.2). Each client holds the prioritized peer
// list computed by internal/core; on detecting a loss it unicasts a request
// to the first peer, falls through the list on per-attempt timeouts, and
// lands on the source as the guaranteed last resort ("If the packet may not
// be recovered from v1 … vk, then u will recover it from S by default").
//
// Options expose the paper's variants: the restricted strategy graph that
// forbids going to the source directly (§4), the source-subgroup multicast
// repair of §2.2/[4], and an explicit-NAK extension that lets a peer reject
// a request immediately instead of letting it time out.
package rpproto

import (
	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Options configures the RP engine.
type Options struct {
	// Timeout is the per-attempt timeout policy shared with planning;
	// nil means core.ProportionalTimeout(3).
	Timeout core.TimeoutPolicy
	// AllowDirectSource mirrors the strategy-graph option (§4): when
	// false the planner never puts the source first.
	AllowDirectSource bool
	// SubgroupRepair makes the source answer requests with a multicast to
	// the requester's subgroup subtree instead of a unicast (§2.2 / [4]).
	SubgroupRepair bool
	// SubgroupDepth is the tree depth of subgroup roots (default 1: the
	// requester's top-level subtree).
	SubgroupDepth int32
	// SubgroupSuppressFactor controls source-side request suppression
	// when SubgroupRepair is on: a request for (seq, subgroup) arriving
	// within factor·RTT(source, requester) of the previous subgroup
	// multicast for the same pair is ignored — the in-flight repair will
	// serve it. This is the load reduction of reference [4] ("the
	// recovery load on S may be reduced by grouping clients", §2.2).
	// Default 1; ≤ 0 disables suppression.
	SubgroupSuppressFactor float64
	// NakReplies makes peers that lack a requested packet reply with an
	// explicit NAK so the requester advances without waiting for the
	// timeout. An extension beyond the paper (it assumes the timeout
	// mechanism); exposed for the ablation benchmarks.
	NakReplies bool
	// LossAware plans with the loss-aware model (core.Planner.LossProb set
	// to the network's mean link loss) instead of the paper's reliable-
	// network model — the extension discussed in internal/core/aware.go.
	LossAware bool
	// Resilience configures the crash/churn hardening layer (see
	// resilient.go). The zero value keeps the paper-faithful engine.
	Resilience Resilience
	// Failover configures the coordinated-RP mode with epoch-fenced
	// re-election (see failover.go). The zero value keeps the peer-list
	// engine; when enabled it takes precedence over Resilience (the two
	// harden different deployments and are not composed).
	Failover Failover
	// NoHoldFreshRequests disables request holding. By default a peer
	// that receives a request for a packet it has not seen — but whose
	// loss-free arrival time is still in the future — holds the request
	// until that instant and answers if the packet shows up. Without
	// holding, a peer farther from the source than the requester can
	// never serve fresh packets (they are still in transit when the
	// request lands), which silently disables deep-meet peers — a transit
	// effect the paper's static model does not represent. Holding needs
	// only peer-local knowledge (its own expected arrival time).
	NoHoldFreshRequests bool
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{AllowDirectSource: true, SubgroupDepth: 1, SubgroupSuppressFactor: 1}
}

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
	pending     map[key]*attempt
	// lastSubRepair records the send time of the latest subgroup repair
	// multicast per (seq, subgroup root), for source-side suppression.
	lastSubRepair map[key]float64
	// served suppresses duplicated requests: a (host, requester, seq)
	// request repeated within half the requester's retry timeout is a
	// message-plane duplicate, not a retry, and is dropped unanswered.
	served *protocol.DedupCache

	// Resilience state (see resilient.go). roster is non-nil only when
	// Resilience.Enabled; it then holds the live plans in place of
	// strategies, so incremental replans are visible through Strategy.
	roster       *core.Roster
	suspectCount map[obs]int
	skipUntil    map[obs]float64
	dead         map[graph.NodeID]bool

	// Failover state (see failover.go). elect is non-nil only when
	// Failover.Enabled; maxClaimed/claimant form the epoch registry (the
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

type key struct {
	c   graph.NodeID
	seq int
}

type attempt struct {
	idx   int // index into the peer list; len(peers) means "at source"
	retry int // consecutive attempts at the current index (resilience)
	// parked marks a recovery whose owner is crashed: no timer is armed
	// until OnRecover resumes it.
	parked bool
	// target is the peer the armed timer is waiting on, for attributing
	// the timeout to the right failure-detector entry.
	target graph.NodeID
	timer  sim.Timer
}

// request is the payload of an RP recovery request.
type request struct {
	Requester graph.NodeID
}

// nak is the payload of an explicit "don't have it" reply (NakReplies).
type nak struct{}

// New returns an RP engine with the given options.
func New(opt Options) *Engine {
	if opt.SubgroupDepth <= 0 {
		opt.SubgroupDepth = 1
	}
	return &Engine{
		opt:           opt,
		pending:       make(map[key]*attempt),
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
	if e.opt.Failover.Enabled {
		return "RP-FAILOVER"
	}
	if e.opt.Resilience.Enabled {
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
// state); both force the byte-exact serial fallback.
func (e *Engine) CloneForShard() protocol.Engine {
	if e.opt.Resilience.Enabled || e.opt.Failover.Enabled {
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
	if e.opt.Failover.Enabled {
		e.initFailover()
		return
	}
	if e.sharedPlans != nil {
		e.strategies = e.sharedPlans
		return
	}
	p := core.NewPlanner(s.Tree, s.Routes)
	p.Timeout = e.opt.Timeout
	p.AllowDirectSource = e.opt.AllowDirectSource
	if e.opt.LossAware {
		var sum float64
		for _, l := range s.Topo.Loss {
			sum += l
		}
		p.LossProb = sum / float64(len(s.Topo.Loss))
	}
	if e.opt.Resilience.Enabled {
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

// OnDetect implements protocol.Engine: start attempt 0. Monotonic guard:
// a packet the client already holds never (re-)enters pending, whatever
// duplicated or reordered signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	k := key{c, seq}
	if _, dup := e.pending[k]; dup {
		return
	}
	if !e.s.Missing(c, seq) {
		return
	}
	a := &attempt{}
	e.pending[k] = a
	e.dispatchSend(c, seq, a)
}

// dispatchSend routes a fresh or resumed attempt through the mode's send
// path: coordinator-routed (failover) or peer-list walk.
func (e *Engine) dispatchSend(c graph.NodeID, seq int, a *attempt) {
	if e.opt.Failover.Enabled {
		e.foSend(c, seq, a)
		return
	}
	e.send(c, seq, a)
}

// send fires the request for the attempt's current index and arms the
// fall-through timer. A crashed owner parks instead (resumed by OnRecover);
// an owner whose strategy was evicted from the roster (a false-positive
// death declaration) falls back to source-only recovery.
func (e *Engine) send(c graph.NodeID, seq int, a *attempt) {
	if !e.s.Alive(c) {
		a.parked = true
		return
	}
	st := e.Strategy(c)
	var target graph.NodeID
	var t0 float64
	switch {
	case st == nil:
		target = e.s.Topo.Source
		t0 = e.timeoutPolicy().Timeout(e.s.Routes.RTT(c, e.s.Topo.Source))
	default:
		for a.idx < len(st.Peers) && e.skipPeer(c, st.Peers[a.idx].Peer) {
			a.idx++
			a.retry = 0
		}
		if a.idx < len(st.Peers) {
			target = st.Peers[a.idx].Peer
			t0 = st.Peers[a.idx].Timeout
		} else {
			target = e.s.Topo.Source
			t0 = st.SourceTimeout
		}
	}
	e.s.Net.Unicast(target, sim.Packet{
		Kind: sim.Request, Seq: seq, From: c, Payload: request{Requester: c},
	})
	a.target = target
	a.timer = e.s.Eng.NewTimer(e.attemptTimeout(t0, a.retry), func() { e.timeout(c, seq, a) })
}

// timeoutPolicy mirrors the planner's default for clients that lost their
// strategy to eviction.
func (e *Engine) timeoutPolicy() core.TimeoutPolicy {
	if e.opt.Timeout != nil {
		return e.opt.Timeout
	}
	return core.ProportionalTimeout(3)
}

// timeout retries the current peer while its budget lasts, then advances to
// the next attempt (the source attempt repeats forever, so recovery is
// guaranteed to terminate while the client is up).
func (e *Engine) timeout(c graph.NodeID, seq int, a *attempt) {
	k := key{c, seq}
	if e.pending[k] != a || a.parked {
		return // superseded, or owner crashed
	}
	if !e.s.Missing(c, seq) {
		delete(e.pending, k)
		return
	}
	e.noteTimeout(c, a.target)
	res := e.opt.Resilience
	atSource := a.target == e.s.Topo.Source
	if res.Enabled && (a.retry < res.PeerRetries || atSource) {
		a.retry++ // retry the same target (backoff grows; capped)
	} else {
		a.retry = 0
		st := e.Strategy(c)
		if st != nil && a.idx < len(st.Peers) {
			a.idx++
		}
	}
	e.send(c, seq, a)
}

// advance is the NAK fast path: the peer answered that it lacks the packet,
// so skip its remaining retry budget immediately (and clear any suspicion —
// an explicit reply is proof of life). Only a NAK from the peer the armed
// timer is actually waiting on advances the walk: a duplicated or delayed
// NAK from an earlier attempt must not double-advance past unasked peers.
func (e *Engine) advance(c graph.NodeID, seq int, from graph.NodeID) {
	k := key{c, seq}
	a := e.pending[k]
	if a == nil || a.parked || from != a.target || !a.timer.Stop() {
		return
	}
	if !e.s.Missing(c, seq) {
		delete(e.pending, k)
		return
	}
	e.clearSuspicion(c, a.target)
	a.retry = 0
	st := e.Strategy(c)
	if st != nil && a.idx < len(st.Peers) {
		a.idx++
	}
	e.send(c, seq, a)
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
			if !e.opt.Failover.Enabled || !e.s.IsClient(pay.Requester) || pay.Epoch < 1 {
				e.s.NoteMalformed()
				return
			}
			e.foOnRequest(host, pkt.Seq, pay)
		case foPromote:
			if !e.opt.Failover.Enabled || pay.Epoch < 1 {
				e.s.NoteMalformed()
				return
			}
			e.foOnPromote(host, pay)
		case foAnnounce:
			if !e.opt.Failover.Enabled || pay.Epoch < 1 {
				e.s.NoteMalformed()
				return
			}
			e.foOnAnnounce(host, pay)
		case foProbe:
			if !e.opt.Failover.Enabled || !e.s.IsClient(pay.Requester) {
				e.s.NoteMalformed()
				return
			}
			e.foOnProbe(host, pay)
		default:
			e.s.NoteMalformed()
		}
	case sim.Repair:
		k := key{host, pkt.Seq}
		if a := e.pending[k]; a != nil {
			a.timer.Stop()
			delete(e.pending, k)
		}
		e.clearSuspicion(host, pkt.From)
		if e.opt.Failover.Enabled {
			// A served recovery is proof the coordinator path works again.
			e.rpTimeouts[host] = 0
		}
	}
}

// onRequest serves or declines one recovery request arriving at host. A
// repeat of the same (requester, seq) within half the requester's own retry
// timeout cannot be a retry — retries are spaced at least one full timeout
// apart — so it is dropped as a message-plane duplicate.
func (e *Engine) onRequest(host graph.NodeID, seq int, requester graph.NodeID) {
	window := 0.5 * e.timeoutPolicy().Timeout(e.s.Routes.RTT(host, requester))
	if e.served.Seen(host, requester, seq, e.s.Eng.Now(), window) {
		return
	}
	if !e.s.Has(host, seq) {
		if !e.opt.NoHoldFreshRequests && e.s.IsClient(host) {
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
		if e.opt.SubgroupSuppressFactor > 0 {
			window := e.opt.SubgroupSuppressFactor * e.s.Routes.RTT(host, requester)
			if last, ok := e.lastSubRepair[sk]; ok && e.s.Eng.Now()-last < window {
				return // an in-flight subgroup repair already covers this
			}
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

// subgroupRoot returns the requester's ancestor at SubgroupDepth (or the
// requester itself for very shallow clients).
func (e *Engine) subgroupRoot(requester graph.NodeID) graph.NodeID {
	t := e.s.Tree
	depth := t.Depth[requester]
	if depth <= e.opt.SubgroupDepth {
		return requester
	}
	return t.Ancestor(requester, depth-e.opt.SubgroupDepth)
}

// PendingRecoveries reports the number of in-flight recoveries (testing).
func (e *Engine) PendingRecoveries() int { return len(e.pending) }

// DedupCaches implements protocol.DedupAudited.
func (e *Engine) DedupCaches() []*protocol.DedupCache {
	return []*protocol.DedupCache{e.served}
}

var (
	_ protocol.Engine       = (*Engine)(nil)
	_ protocol.FaultAware   = (*Engine)(nil)
	_ protocol.DedupAudited = (*Engine)(nil)
	_ protocol.Coordinator  = (*Engine)(nil)
)
