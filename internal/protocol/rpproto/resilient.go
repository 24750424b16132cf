// Resilient RP: the hardening layer the paper's reliable-network model does
// not need. The paper assumes peers never die and recovery traffic is never
// lost, so a single request per peer with one fall-through timeout suffices.
// Under fault injection (internal/fault) both assumptions break, and plain
// RP degrades two ways: a transiently lost request wastes a whole timeout
// before advancing, and a crashed peer keeps absorbing first-choice requests
// from every client whose list it tops. Options.Resilient adds, per the
// usual failure-detector playbook:
//
//   - a per-peer retry budget with exponential backoff and jitter, so a
//     lossy link gets more than one chance before the peer is skipped;
//   - dead-peer suspicion: K consecutive timeouts against a peer makes the
//     requester skip it for a cooldown window;
//   - eviction with roster-driven replanning: enough consecutive timeouts
//     declares the peer dead group-wide, and core.Roster's incremental
//     churn path (Leave/Join) repairs exactly the affected strategies;
//     a recovering peer is re-admitted through Join.
//
// The source remains the guaranteed last resort: a client whose strategy
// was evicted (a false positive under heavy loss) falls back to
// source-only recovery, so the liveness invariant — every gap at a live
// client is eventually filled while the source stays up and the tree is
// eventually connected — survives arbitrary misjudgements.
package rpproto

import (
	"math"

	"rmcast/internal/graph"
	"rmcast/internal/protocol"
)

// The hardening layer's constants.
const (
	// peerRetries is the number of extra attempts (beyond the first) a
	// peer gets before the requester advances past it.
	peerRetries = 1
	// backoffFactor multiplies the attempt timeout per retry (exponential
	// backoff, exponent capped at maxBackoffExp).
	backoffFactor = 2
	maxBackoffExp = 6
	// jitterFrac adds U[0, jitterFrac)·t0 to every armed timeout,
	// decorrelating retry storms after a shared outage.
	jitterFrac = 0.1
	// suspicionThreshold is K: after K consecutive timeouts against a
	// peer, the requester skips it for suspicionCooldown ms.
	suspicionThreshold = 2
	suspicionCooldown  = 2000
	// declareDeadAfter evicts a peer from the roster (with incremental
	// replanning) after this many consecutive timeouts from a single
	// observer.
	declareDeadAfter = 4
)

// obs is one client's view of one peer — suspicion is per observer, the
// way a deployed failure detector would keep it, not group-global.
type obs struct {
	c, peer graph.NodeID
}

// attemptTimeout applies backoff and jitter to a base timeout.
func (e *Engine) attemptTimeout(t0 float64, retry int) float64 {
	if !e.opt.Resilient {
		return t0
	}
	to := t0 * math.Pow(backoffFactor, float64(min(retry, maxBackoffExp)))
	return to + t0*jitterFrac*e.s.Rand.Float64()
}

// skipPeer reports whether a requester should currently pass over a peer:
// evicted peers always, suspected peers until their cooldown expires.
func (e *Engine) skipPeer(c, peer graph.NodeID) bool {
	if !e.opt.Resilient {
		return false
	}
	if e.dead[peer] {
		return true
	}
	until, ok := e.skipUntil[obs{c, peer}]
	return ok && e.s.Eng.Now() < until
}

// noteTimeout records one consecutive timeout of peer as seen by c and
// applies the suspicion/eviction thresholds.
func (e *Engine) noteTimeout(c, peer graph.NodeID) {
	if !e.opt.Resilient || peer == e.s.Topo.Source {
		return
	}
	o := obs{c, peer}
	e.suspectCount[o]++
	n := e.suspectCount[o]
	if n >= suspicionThreshold {
		e.skipUntil[o] = e.s.Eng.Now() + suspicionCooldown
	}
	if n >= declareDeadAfter {
		e.declareDead(peer)
	}
}

// clearSuspicion resets c's failure-detector state for peer after any
// explicit sign of life (a repair or a NAK from it).
func (e *Engine) clearSuspicion(c, peer graph.NodeID) {
	if !e.opt.Resilient {
		return
	}
	o := obs{c, peer}
	delete(e.suspectCount, o)
	delete(e.skipUntil, o)
}

// declareDead evicts a peer group-wide: the roster's incremental Leave
// replans exactly the clients whose strategies contained it as a class
// winner. A false positive (the peer was alive but unreachable) costs the
// evicted client its peer list — send falls back to source-only recovery —
// never liveness.
func (e *Engine) declareDead(v graph.NodeID) {
	if e.roster == nil || e.dead[v] || !e.roster.Active(v) {
		return
	}
	if _, err := e.roster.Leave(v); err != nil {
		return
	}
	e.dead[v] = true
}

// OnCrash implements protocol.FaultAware: park the crashed client's
// in-flight recoveries. Without parking a permanently crashed client would
// re-arm its retry timers forever and the run could never quiesce.
func (e *Engine) OnCrash(h graph.NodeID) { e.s.Park(h) }

// OnRecover implements protocol.FaultAware: re-admit the host if it had
// been evicted, forget what observers held against it, and resume its
// parked recoveries from a fresh retry budget.
func (e *Engine) OnRecover(h graph.NodeID) {
	if e.roster != nil && e.dead[h] {
		if _, err := e.roster.Join(h); err == nil {
			delete(e.dead, h)
		}
		for o := range e.suspectCount {
			if o.peer == h {
				delete(e.suspectCount, o)
			}
		}
		for o := range e.skipUntil {
			if o.peer == h {
				delete(e.skipUntil, o)
			}
		}
	}
	e.s.Resume(h, func(r *protocol.Recovery) {
		r.Retry = 0
		e.dispatchSend(h, r)
	})
	if e.opt.Failover {
		e.foOnRecover(h)
	}
}
