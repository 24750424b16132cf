package core

import (
	"rmcast/internal/graph"
)

// This file is the one planning pipeline every path shares. A client's
// candidate list comes from one of two producers, and finishPlan turns it
// into a strategy — Lemma 5's descending-DS order, the strategy graph, then
// Algorithm 1 or the loss-aware DP:
//
//   - scan (the per-client path, and the batch fallback): every other
//     client joins the competitive class of its meet router LCA(u, v), and
//     each class keeps the member that beats the rest (Lemma 4). The class
//     table is keyed by meet depth, since every class of u meets at u or
//     one of its ancestors and those nodes have distinct depths; it needs
//     Depth[u]+1 slots, not one per node.
//   - lookup (computeFastMode != fastOff): every class winner is an O(1)
//     read off the tree aggregate of treeagg.go along u's root path, so one
//     client plans in O(depth) and the whole batch in O(N·depth) instead
//     of O(N²). The winner's RTT/Timeout fields are filled through the same
//     candidateOf as the scan, so strategies match field for field; tests
//     fuzz this equivalence across configurations and topologies.
//
// StrategyFor, the batch calls below and core.Roster's replans all run this
// pipeline. The batch API is the dense form, PlanAllDense/PlanAllDenseInto,
// in Tree.Clients order; PlanAll adapts it to a map for callers whose
// output is keyed by client node.
//
// Exactness caveat: the fast path ranks by DelayFromRoot while the scan
// compares summed float costs. With integer (or any dyadic) link delays the
// two are exactly equivalent; with continuous random delays a divergence
// requires two distinct real delays to collapse to the same float sum,
// which has probability zero. Only adversarial non-dyadic delay sets can
// tell the paths apart, and then only by swapping equal-cost winners.
//
// The harness plans every client of every topology of every sweep cell, so
// this path is what BenchmarkPlannerAll measures and what the RP engines
// call at session construction.

// planScratch is the state one planning caller reuses across clients: the
// Planner's batch calls, each Roster, and each per-client Candidates call
// own one apiece, so planning never writes shared state. Bind it to its
// planner before use.
type planScratch struct {
	// pol and mr are the planner's timeout policy and RTTVia shortcut (nil
	// when the router has none), resolved once by bind.
	pol TimeoutPolicy
	mr  meetRouter
	// class[d] is the index in cands of the current winner of the class
	// meeting u's root path at depth d, or -1 while that class is empty.
	class []int32
	// cands is the reused candidate buffer.
	cands []Candidate
	// dist/parent/rev back algorithm1; W/choice back optimalDP.
	dist   []float64
	parent []int
	rev    []int
	W      []float64
	choice []int
}

// bind resolves p's timeout policy and meet-router shortcut into sc.
func (sc *planScratch) bind(p *Planner) {
	sc.pol = p.timeout()
	sc.mr, _ = p.Routes.(meetRouter)
}

// batchState lazily builds the planner's shared batch machinery: the bound
// scratch, the fast-path eligibility decision, and (when eligible) the tree
// aggregate over the full client set. The decision is made once —
// Tree/Routes/Timeout/LossProb must not change after the first batch call.
func (p *Planner) batchState() {
	if p.modeSet {
		return
	}
	p.modeSet = true
	p.sc.bind(p)
	if p.mode = p.computeFastMode(); p.mode != fastOff {
		p.agg = newTreeAgg(p.Tree)
	}
}

// UsesFastPath reports whether batch planning uses the tree-aggregated
// near-linear path (as opposed to the O(N²) peer scan). Diagnostic; the
// result is fixed at the first batch planning call.
func (p *Planner) UsesFastPath() bool {
	p.batchState()
	return p.mode != fastOff
}

// PlanAll is the map adapter over PlanAllDense, for callers whose output is
// keyed by client node.
func (p *Planner) PlanAll() map[graph.NodeID]*Strategy {
	out := make(map[graph.NodeID]*Strategy, len(p.Tree.Clients))
	for i, st := range p.PlanAllDense() {
		out[p.Tree.Clients[i]] = st
	}
	return out
}

// PlanAllDense computes every client's strategy in one batch pass, into a
// dense slice indexed by client position in Tree.Clients. The result is
// identical (field for field) to calling StrategyFor per client; tests
// assert this across planner configurations. The dense form is one flat
// allocation in the tree's canonical client order: at n=1,000,000 a
// strategy map would cost hundreds of MB of buckets, and its iteration
// order would force a sort anywhere determinism matters.
func (p *Planner) PlanAllDense() []*Strategy { return p.PlanAllDenseInto(nil) }

// PlanAllDenseInto is PlanAllDense writing into a caller-retained slice
// (len ≥ len(Tree.Clients)): entries and their Strategy values (including
// Peers backing arrays) are updated in place, so steady-state replanning
// allocates nothing. A nil slice behaves like PlanAllDense.
func (p *Planner) PlanAllDenseInto(out []*Strategy) []*Strategy {
	if out == nil {
		out = make([]*Strategy, len(p.Tree.Clients))
	}
	p.batchState()
	for i, u := range p.Tree.Clients {
		if p.agg != nil {
			p.lookup(u, p.agg, p.mode, &p.sc)
		} else {
			p.scan(u, nil, &p.sc)
		}
		out[i] = p.finishPlan(u, &p.sc, out[i])
	}
	return out
}

// candidateOf materialises the candidate peer v of client u at meet router
// meet. Both producers build candidates through this helper, so their
// strategies carry bit-identical RTT/Timeout fields. meet is always
// LCA(u, v) at every call site, so RTTVia may replace the route query.
func (p *Planner) candidateOf(sc *planScratch, u, meet, v graph.NodeID) Candidate {
	var rtt float64
	if sc.mr != nil {
		rtt = sc.mr.RTTVia(u, v, meet)
	} else {
		rtt = p.Routes.RTT(u, v)
	}
	return Candidate{
		Peer:    v,
		Meet:    meet,
		DS:      p.Tree.Depth[meet],
		RTT:     rtt,
		Timeout: sc.pol.Timeout(rtt),
		Priv:    p.Tree.Depth[v] - p.Tree.Depth[meet],
	}
}

// scan collects u's class winners into sc.cands, unsorted, by testing every
// other client — only the active ones when active (indexed by NodeID) is
// non-nil.
func (p *Planner) scan(u graph.NodeID, active []bool, sc *planScratch) {
	t := p.Tree
	n := int(t.Depth[u]) + 1 // one class per meet depth 0..Depth[u]
	if cap(sc.class) < n {
		sc.class = make([]int32, n)
	}
	class := sc.class[:n]
	for d := range class {
		class[d] = -1
	}
	if cap(sc.cands) < n {
		sc.cands = make([]Candidate, 0, n)
	}
	sc.cands = sc.cands[:0]
	for _, v := range t.Clients {
		if v == u || active != nil && !active[v] {
			continue
		}
		c := p.candidateOf(sc, u, t.LCA(u, v), v)
		if i := class[c.DS]; i < 0 {
			class[c.DS] = int32(len(sc.cands))
			sc.cands = append(sc.cands, c)
		} else if cur := &sc.cands[i]; p.beats(u, &c, cur) {
			*cur = c
		}
	}
}

// lookup collects u's class winners into sc.cands from a tree aggregate
// (the planner's own full-group one, or a roster's membership-tracking one)
// in the given fast mode: the meet routers of u are exactly the nodes of
// u's root path (u itself when peers sit below it), and each class winner
// is an O(1) lookup excluding the branch u hangs under. Candidates emerge
// deepest-first, i.e. already in the strictly-descending-DS order Lemma 5
// requires.
func (p *Planner) lookup(u graph.NodeID, agg *treeAgg, mode fastMode, sc *planScratch) {
	t := p.Tree
	sc.cands = sc.cands[:0]
	// Descendant class first (meet == u): peers strictly below u. Its
	// conditional loss probability is 1, so under constant-cost policies
	// (fastKeyPeerSelf) the scan's tie-break degenerates to min peer ID.
	if e := agg.selfWinner(u, mode); e.peer != graph.None {
		sc.cands = append(sc.cands, p.candidateOf(sc, u, u, e.peer))
	}
	// Ancestor classes, deepest first: exclude the branch leading to u.
	for x := u; t.Parent[x] != graph.None; x = t.Parent[x] {
		r := t.Parent[x]
		e := bestExcluding(&agg.byKey[r], agg.childPos[x])
		if e.peer != graph.None {
			sc.cands = append(sc.cands, p.candidateOf(sc, u, r, e.peer))
		}
	}
}

// finishPlan runs the shared tail of both producers: candidate order,
// strategy graph, and the shortest-path solver over the shared scratch.
// into, when non-nil, is updated in place.
func (p *Planner) finishPlan(u graph.NodeID, sc *planScratch, into *Strategy) *Strategy {
	sortCandidates(sc.cands)
	srcRTT := p.Routes.RTT(u, p.Tree.Root)
	sg := &StrategyGraph{
		Client:            u,
		ClientDepth:       p.Tree.Depth[u],
		Candidates:        sc.cands,
		SourceRTT:         srcRTT,
		SourceTimeout:     sc.pol.Timeout(srcRTT),
		AllowDirectSource: p.AllowDirectSource,
	}
	// Grow the shortest-path scratch once; the solvers reslice it.
	if need := len(sc.cands) + 2; cap(sc.dist) < need {
		sc.dist = make([]float64, need)
		sc.parent = make([]int, need)
		sc.rev = make([]int, need)
		sc.W = make([]float64, need)
		sc.choice = make([]int, need)
	}
	if p.LossProb > 0 {
		return sg.optimalDP(1-p.LossProb, sc.W, sc.choice, into)
	}
	return sg.algorithm1(sc.dist, sc.parent, sc.rev, into)
}
