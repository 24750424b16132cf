package fault

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// window is one half-open downtime interval [From, To). A permanent outage
// has To = +Inf.
type window struct {
	From, To float64
}

// windows is a sorted, disjoint set of downtime intervals.
type windows []window

// downAt reports whether t falls inside any interval.
func (ws windows) downAt(t float64) bool {
	// First window starting after t; the candidate is its predecessor.
	i := sort.Search(len(ws), func(i int) bool { return ws[i].From > t })
	return i > 0 && t < ws[i-1].To
}

// geChain is one link's Gilbert–Elliott state.
type geChain struct {
	p   GEParams
	bad bool
}

// State is the runtime form of a Schedule, bound to one simulation run. It
// answers time-indexed up/down queries from precompiled downtime windows —
// so the network can ask about *future* traversal instants, not just the
// current clock — and steps the burst chains from its own private rng
// stream, keeping the network's Bernoulli loss stream untouched.
//
// State is not safe for concurrent use; like the rest of the simulator it
// belongs to a single run.
type State struct {
	sched *Schedule
	hosts map[graph.NodeID]windows
	links map[graph.EdgeID]windows
	burst map[graph.EdgeID]*geChain
	mut   *Mutator
	r     *rng.Rand
}

// NewState compiles a schedule into its runtime form. The schedule is
// normalized in place (events sorted); the rng
// stream is owned by the state afterwards. A nil schedule yields a state
// that injects nothing.
func NewState(s *Schedule, r *rng.Rand) *State {
	st := &State{
		sched: s,
		hosts: make(map[graph.NodeID]windows),
		links: make(map[graph.EdgeID]windows),
		burst: make(map[graph.EdgeID]*geChain),
		r:     r,
	}
	if s == nil {
		return st
	}
	s.Normalize()
	// Compile per-entity downtime windows. Events arrive time-sorted;
	// redundant transitions (crash while down, recover while up) are
	// ignored, and an unmatched down-transition extends to +Inf.
	hostDown := make(map[graph.NodeID]float64)
	linkDown := make(map[graph.EdgeID]float64)
	for _, e := range s.Events {
		switch e.Kind {
		case CrashHost:
			if _, down := hostDown[e.Node]; !down {
				hostDown[e.Node] = e.At
			}
		case RecoverHost:
			if from, down := hostDown[e.Node]; down {
				if e.At > from {
					st.hosts[e.Node] = append(st.hosts[e.Node], window{from, e.At})
				}
				delete(hostDown, e.Node)
			}
		case LinkDown:
			if _, down := linkDown[e.Link]; !down {
				linkDown[e.Link] = e.At
			}
		case LinkUp:
			if from, down := linkDown[e.Link]; down {
				if e.At > from {
					st.links[e.Link] = append(st.links[e.Link], window{from, e.At})
				}
				delete(linkDown, e.Link)
			}
		}
	}
	for n, from := range hostDown {
		st.hosts[n] = append(st.hosts[n], window{from, math.Inf(1)})
	}
	for l, from := range linkDown {
		st.links[l] = append(st.links[l], window{from, math.Inf(1)})
	}
	// Each entity's windows were appended in event-time order (and any
	// trailing +Inf window starts after every closed one), so the per-entity
	// lists are already sorted and disjoint.
	for l, p := range s.Burst {
		st.burst[l] = &geChain{p: p}
	}
	// The mutator's stream is split off only when mutation is configured,
	// so a mutation-free schedule leaves the burst chains' draws — and
	// therefore the whole run — byte-identical to before this layer.
	if !s.Mutation.Empty() {
		st.mut = newMutator(s.Mutation, r.Split())
	}
	return st
}

// Mutator returns the compiled message-plane mutator (nil when the schedule
// configures none).
func (st *State) Mutator() *Mutator { return st.mut }

// Schedule returns the compiled schedule (nil when none).
func (st *State) Schedule() *Schedule { return st.sched }

// HostUpAt reports whether a host is up at time t.
func (st *State) HostUpAt(n graph.NodeID, t float64) bool {
	ws, ok := st.hosts[n]
	return !ok || !ws.downAt(t)
}

// HostDownUntil returns the end of the downtime window containing t for
// host n: NaN when the host is up at t, +Inf for a permanent crash. The
// session uses it to defer a crashed client's loss detection to its
// recovery instant.
func (st *State) HostDownUntil(n graph.NodeID, t float64) float64 {
	ws := st.hosts[n]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].From > t })
	if i > 0 && t < ws[i-1].To {
		return ws[i-1].To
	}
	return math.NaN()
}

// LinkUpAt reports whether a link is up at time t.
func (st *State) LinkUpAt(l graph.EdgeID, t float64) bool {
	ws, ok := st.links[l]
	return !ok || !ws.downAt(t)
}

// HostEverFaulty reports whether the schedule ever takes this host down —
// engines use it to skip fault bookkeeping for hosts the schedule never
// touches.
func (st *State) HostEverFaulty(n graph.NodeID) bool {
	_, ok := st.hosts[n]
	return ok
}

// CrossBurst steps the burst chain of a link for one packet crossing and
// reports whether the crossing is lost, plus whether a chain is configured
// at all (ok=false means the caller should fall back to its flat loss
// model). Chains are stepped in crossing order — the standard per-packet
// Gilbert–Elliott discipline — from the state's private rng stream.
func (st *State) CrossBurst(l graph.EdgeID) (lost, ok bool) {
	c := st.burst[l]
	if c == nil {
		return false, false
	}
	p := c.p.LossGood
	if c.bad {
		p = c.p.LossBad
	}
	lost = st.r.Float64() < p
	// Transition after the draw.
	if c.bad {
		if st.r.Float64() < c.p.PBG {
			c.bad = false
		}
	} else if st.r.Float64() < c.p.PGB {
		c.bad = true
	}
	return lost, true
}

// HostEvents returns the effective host crash/recover transitions, sorted
// by time with ties broken by node ID, for wiring OnCrash/OnRecover hooks
// into an event engine. They are derived from the compiled downtime windows
// rather than the raw schedule, so redundant transitions (a crash while
// already down) never fire a hook twice, and a permanent crash yields no
// recover event.
func (st *State) HostEvents() []Event {
	var out []Event
	for n, ws := range st.hosts {
		for _, w := range ws {
			out = append(out, Event{At: w.From, Kind: CrashHost, Node: n})
			if !math.IsInf(w.To, 1) {
				out = append(out, Event{At: w.To, Kind: RecoverHost, Node: n})
			}
		}
	}
	slices.SortFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return out
}
