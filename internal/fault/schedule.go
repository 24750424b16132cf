// Package fault provides the failure-injection layer of the simulator: a
// deterministic, seedable schedule of host crashes, link outages, and
// Gilbert–Elliott burst loss that the simulated network consults on every
// packet event.
//
// The paper derives RP under the "reliable network" approximation — a
// static client group, peers that never die, and independent Bernoulli loss
// per link. Related work studies exactly the regimes that approximation
// skips (Heidarzadeh & Sprintson's unreliable clients; Byun's repair nodes
// that must stay reachable), so this package exists to measure where RP
// degrades gracefully and where it must be hardened. Everything here is a
// deliberate departure from the paper's model; a nil or empty Schedule
// reproduces the paper's network bit-for-bit.
//
// A Schedule is declarative data (events and per-link burst parameters),
// built once per run from a seed. The runtime form is a State (see
// state.go), which answers time-indexed queries ("is host h up at t?") and
// owns the burst chains' private randomness so that attaching an empty
// fault model never perturbs the network's loss stream.
package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rmcast/internal/graph"
)

// EventKind classifies schedule events.
type EventKind uint8

const (
	// CrashHost takes a host down: from the event time it drops every
	// packet it would send or receive.
	CrashHost EventKind = iota
	// RecoverHost brings a crashed host back up.
	RecoverHost
	// LinkDown takes a link down: every packet crossing it is dropped.
	LinkDown
	// LinkUp restores a downed link.
	LinkUp
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case CrashHost:
		return "crash"
	case RecoverHost:
		return "recover"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault transition. Node is meaningful for host
// events, Link for link events.
type Event struct {
	At   float64
	Kind EventKind
	Node graph.NodeID
	Link graph.EdgeID
}

// GEParams parameterises a per-link Gilbert–Elliott chain: a two-state
// Markov model stepped once per packet crossing. In the good state the
// crossing is lost with probability LossGood, in the bad state with
// LossBad; after the draw the chain transitions good→bad with PGB and
// bad→good with PBG. Chains start in the good state.
type GEParams struct {
	PGB, PBG          float64
	LossGood, LossBad float64
}

// field is one named parameter and whether it is in its legal range.
type field struct {
	name string
	v    float64
	ok   bool
}

// firstBad returns an error naming the first field of what that is out of
// range, NaN or infinite.
func firstBad(what string, fields []field) error {
	for _, f := range fields {
		if !f.ok || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fault: bad %s: %s = %v", what, f.name, f.v)
		}
	}
	return nil
}

// Schedule is a declarative fault plan for one simulation run. The zero
// value is the paper's reliable network: no crashes, no outages, no bursts.
type Schedule struct {
	// Events holds the host/link transitions. Normalize keeps them sorted
	// by time (stable on ties), which State requires.
	Events []Event
	// Burst maps links to Gilbert–Elliott burst parameters; a mapped link's
	// chain replaces its flat Topo.Loss draw. Unmapped links keep the flat
	// Bernoulli model.
	Burst map[graph.EdgeID]GEParams
	// Mutation, when non-empty, attaches the adversarial message-plane
	// mutator (duplication, reorder delay, corruption, repair storms —
	// see mutator.go) to the run. Validate checks it. The config is
	// read-only: the runtime copies it, so it may be shared across runs.
	Mutation *MutationConfig
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && len(s.Burst) == 0 && s.Mutation.Empty())
}

// SetMutation attaches a message-plane mutation config.
func (s *Schedule) SetMutation(cfg *MutationConfig) *Schedule {
	s.Mutation = cfg
	return s
}

// CrashHost schedules a host crash at the given time.
func (s *Schedule) CrashHost(at float64, node graph.NodeID) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: CrashHost, Node: node})
	return s
}

// RecoverHost schedules a host recovery.
func (s *Schedule) RecoverHost(at float64, node graph.NodeID) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: RecoverHost, Node: node})
	return s
}

// CrashWindow schedules a crash at from and a recovery at to. A to ≤ from
// leaves the host down forever (permanent crash).
func (s *Schedule) CrashWindow(node graph.NodeID, from, to float64) *Schedule {
	s.CrashHost(from, node)
	if to > from {
		s.RecoverHost(to, node)
	}
	return s
}

// LinkDown schedules a link outage start.
func (s *Schedule) LinkDown(at float64, link graph.EdgeID) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: LinkDown, Link: link})
	return s
}

// LinkUp schedules a link restoration.
func (s *Schedule) LinkUp(at float64, link graph.EdgeID) *Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: LinkUp, Link: link})
	return s
}

// LinkDownWindow schedules an outage over [from, to); to ≤ from downs the
// link forever.
func (s *Schedule) LinkDownWindow(link graph.EdgeID, from, to float64) *Schedule {
	s.LinkDown(from, link)
	if to > from {
		s.LinkUp(to, link)
	}
	return s
}

// SetBurst attaches Gilbert–Elliott burst loss to one link. Validate
// rejects a probability outside [0, 1].
func (s *Schedule) SetBurst(link graph.EdgeID, p GEParams) *Schedule {
	if s.Burst == nil {
		s.Burst = make(map[graph.EdgeID]GEParams)
	}
	s.Burst[link] = p
	return s
}

// Normalize sorts the events by time (stable, so same-time events keep
// insertion order). It returns the schedule for chaining. State
// construction normalizes automatically; calling it earlier is harmless.
func (s *Schedule) Normalize() *Schedule {
	slices.SortStableFunc(s.Events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	return s
}

// Validate checks the schedule against a network of numNodes nodes and
// numLinks links: event times must be finite and non-negative, every
// referenced node/link must exist, every burst probability must lie in
// [0, 1], and the mutation config must be valid (MutationConfig.Validate),
// empty or not. It returns the first violation found; a nil schedule is
// valid.
func (s *Schedule) Validate(numNodes, numLinks int) error {
	if s == nil {
		return nil
	}
	if err := s.Mutation.Validate(); err != nil {
		return err
	}
	for i, e := range s.Events {
		if !(e.At >= 0) || math.IsInf(e.At, 1) { // negative, NaN, +Inf
			return fmt.Errorf("fault: event %d at invalid time %v", i, e.At)
		}
		switch e.Kind {
		case CrashHost, RecoverHost:
			if e.Node < 0 || int(e.Node) >= numNodes {
				return fmt.Errorf("fault: event %d references node %d of %d", i, e.Node, numNodes)
			}
		case LinkDown, LinkUp:
			if e.Link < 0 || int(e.Link) >= numLinks {
				return fmt.Errorf("fault: event %d references link %d of %d", i, e.Link, numLinks)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, e.Kind)
		}
	}
	// Links in order, so that a schedule always reports the same one.
	links := make([]graph.EdgeID, 0, len(s.Burst))
	for l := range s.Burst {
		links = append(links, l)
	}
	slices.Sort(links)
	for _, l := range links {
		if l < 0 || int(l) >= numLinks {
			return fmt.Errorf("fault: burst references link %d of %d", l, numLinks)
		}
		p := s.Burst[l]
		for _, f := range []struct {
			name string
			v    float64
		}{{"PGB", p.PGB}, {"PBG", p.PBG}, {"LossGood", p.LossGood}, {"LossBad", p.LossBad}} {
			if !(0 <= f.v && f.v <= 1) { // NaN fails too
				return fmt.Errorf("fault: bad burst on link %d: %s = %v", l, f.name, f.v)
			}
		}
	}
	return nil
}

// CrashesHost reports whether any event in the schedule crashes h.
func (s *Schedule) CrashesHost(h graph.NodeID) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == CrashHost && e.Node == h {
			return true
		}
	}
	return false
}

// ValidateRoles layers the role-aware check on top of Validate: the SOURCE
// may never crash, whatever the engine. The liveness invariant (every gap at
// a live client is eventually filled) is conditioned on the source staying
// up, exactly as the paper's source-as-last-resort argument requires. Every
// engine with a coordinator role (rpproto's RP-FAILOVER) re-elects a
// replacement, so a coordinator crash needs no check.
func (s *Schedule) ValidateRoles(source graph.NodeID) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if e.Kind != CrashHost {
			continue
		}
		if e.Node == source {
			return fmt.Errorf("fault: event %d crashes the source (host %d); source crashes are always rejected — liveness is conditioned on the source staying up", i, e.Node)
		}
	}
	return nil
}
