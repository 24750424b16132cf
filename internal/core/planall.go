package core

import (
	"fmt"

	"rmcast/internal/graph"
)

// This file is the batch planning path: PlanAll computes every client's
// strategy in one shared pass. Per-client, the result is identical to
// StrategyFor — candidate classes (Lemma 4), descending-DS order (Lemma 5),
// then Algorithm 1 or the loss-aware DP — but the pass shares all scratch
// state across clients and, when the preconditions hold, replaces the
// per-client peer scan with the tree-aggregated index of treeagg.go:
//
//   - Fast path (computeFastMode != fastOff): every candidate class of u is
//     keyed by a meet router on u's root path, and the class winner is an
//     O(1) aggregate lookup, so one client plans in O(depth) and the whole
//     batch in O(N·depth) instead of O(N²). The candidate list falls out
//     already in descending-DS order (ancestors have strictly decreasing
//     depth). The winner's RTT/Timeout fields are filled through the same
//     route calls as the scan, so strategies match field for field; tests
//     fuzz this equivalence across configurations and topologies.
//   - Scan path (the fallback, and the former implementation): the
//     competitive-class winner table is a dense epoch-stamped slice indexed
//     by meet router, the candidate list and shortest-path buffers are
//     reused across clients, and LCA queries hit the O(1) Euler-tour table.
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

// planScratch holds the buffers PlanAll shares across clients.
type planScratch struct {
	// mark/classIdx form the epoch-stamped class-winner table: classIdx[r]
	// is the index in cands of the current winner of meet router r, valid
	// only when mark[r] == epoch.
	mark     []uint32
	classIdx []int32
	epoch    uint32
	// cands is the reused candidate buffer.
	cands []Candidate
	// dist/parent/rev back algorithm1; W/choice back optimalDP.
	dist   []float64
	parent []int
	rev    []int
	W      []float64
	choice []int
}

func newPlanScratch(nodes int) *planScratch {
	return &planScratch{
		mark:     make([]uint32, nodes),
		classIdx: make([]int32, nodes),
	}
}

// batchState lazily builds the planner's shared batch machinery: the
// scratch buffers, the fast-path eligibility decision, and (when eligible)
// the tree aggregate over the full client set. The decision is made once —
// Tree/Routes/Timeout/LossProb must not change after the first batch call.
func (p *Planner) batchState() {
	if p.sc == nil {
		p.sc = newPlanScratch(len(p.Tree.Depth))
	}
	if !p.modeSet {
		p.mode = p.computeFastMode()
		p.modeSet = true
		if p.mode != fastOff {
			p.agg = newTreeAgg(p.Tree)
		}
	}
}

// UsesFastPath reports whether batch planning uses the tree-aggregated
// near-linear path (as opposed to the O(N²) peer scan). Diagnostic; the
// result is fixed at the first batch planning call.
func (p *Planner) UsesFastPath() bool {
	p.batchState()
	return p.mode != fastOff
}

// PlanAll computes strategies for every client in one batch pass. The
// result is identical (field for field) to calling StrategyFor per client;
// tests assert this across planner configurations.
func (p *Planner) PlanAll() map[graph.NodeID]*Strategy {
	return p.PlanAllInto(nil)
}

// PlanAllInto is PlanAll writing into a caller-retained result map: map
// entries and their Strategy values (including Peers backing arrays) are
// updated in place, so steady-state replanning — the RP session attach
// path, sweep cells over the same topology — allocates nothing. A nil map
// behaves like PlanAll. The returned map is the input map.
func (p *Planner) PlanAllInto(out map[graph.NodeID]*Strategy) map[graph.NodeID]*Strategy {
	if out == nil {
		out = make(map[graph.NodeID]*Strategy, len(p.Tree.Clients))
	}
	p.batchState()
	if p.mode != fastOff {
		for _, u := range p.Tree.Clients {
			out[u] = p.planOneTree(u, p.agg, p.mode, p.sc, out[u])
		}
		return out
	}
	for _, u := range p.Tree.Clients {
		out[u] = p.planOne(u, p.sc, out[u])
	}
	return out
}

// PlanAllDense is PlanAll into a dense slice indexed by client position in
// Tree.Clients: no map, no per-lookup hashing. The million-client tier uses
// it — at n=1,000,000 a strategy map costs hundreds of MB of buckets and its
// iteration order forces a sort anywhere determinism matters, while the
// dense form is one flat allocation in the tree's canonical client order.
func (p *Planner) PlanAllDense() []*Strategy { return p.PlanAllDenseInto(nil) }

// PlanAllDenseInto is PlanAllDense writing into a caller-retained slice
// (len ≥ len(Tree.Clients)); entries are updated in place like PlanAllInto.
// A nil slice behaves like PlanAllDense.
func (p *Planner) PlanAllDenseInto(out []*Strategy) []*Strategy {
	if out == nil {
		out = make([]*Strategy, len(p.Tree.Clients))
	}
	p.batchState()
	if p.mode != fastOff {
		for i, u := range p.Tree.Clients {
			out[i] = p.planOneTree(u, p.agg, p.mode, p.sc, out[i])
		}
		return out
	}
	for i, u := range p.Tree.Clients {
		out[i] = p.planOne(u, p.sc, out[i])
	}
	return out
}

// candidateOf materialises the class-winner candidate for client u at meet
// router meet. Both planning paths build candidates through this helper, so
// the fast path's strategies carry bit-identical RTT/Timeout fields. meet is
// always LCA(u, v) at every call site — planOne computes it, planOneTree
// reads it off the root path — so meetRTT may shortcut the route query.
func (p *Planner) candidateOf(u, meet, v graph.NodeID, pol TimeoutPolicy) Candidate {
	rtt := p.meetRTT(u, v, meet)
	return Candidate{
		Peer:    v,
		Meet:    meet,
		DS:      p.Tree.Depth[meet],
		RTT:     rtt,
		Timeout: pol.Timeout(rtt),
		Priv:    p.Tree.Depth[v] - p.Tree.Depth[meet],
	}
}

// planOne computes one client's strategy by scanning every peer (the
// always-correct fallback). into, when non-nil, is updated in place.
func (p *Planner) planOne(u graph.NodeID, sc *planScratch, into *Strategy) *Strategy {
	if !p.Tree.Net.IsClient(u) {
		panic(fmt.Sprintf("core: plan of non-client node %d", u))
	}
	pol := p.timeout()
	sc.epoch++
	sc.cands = sc.cands[:0]
	for _, v := range p.Tree.Clients {
		if v == u {
			continue
		}
		meet := p.Tree.LCA(u, v)
		cand := p.candidateOf(u, meet, v, pol)
		if sc.mark[meet] != sc.epoch {
			sc.mark[meet] = sc.epoch
			sc.classIdx[meet] = int32(len(sc.cands))
			sc.cands = append(sc.cands, cand)
			continue
		}
		cur := &sc.cands[sc.classIdx[meet]]
		// Same winner rule as Candidates: cheapest expected attempt cost,
		// ties by lower peer ID (Lemma 4 admits one winner per class).
		cc, pc := p.attemptCost(u, cand), p.attemptCost(u, *cur)
		if cc < pc || (cc == pc && cand.Peer < cur.Peer) {
			*cur = cand
		}
	}
	return p.finishPlan(u, sc, pol, into)
}

// planOneTree computes one client's strategy from a tree aggregate (the
// planner's own full-group one, or a roster's membership-tracking one) in
// the given fast mode: the meet routers of u are exactly the nodes of u's
// root path (u itself when peers sit below it), and each class winner is an
// O(1) lookup excluding the branch u hangs under. Candidates emerge
// deepest-first, i.e. already in the strictly-descending-DS order Lemma 5
// requires.
func (p *Planner) planOneTree(u graph.NodeID, agg *treeAgg, mode fastMode, sc *planScratch, into *Strategy) *Strategy {
	if !p.Tree.Net.IsClient(u) {
		panic(fmt.Sprintf("core: plan of non-client node %d", u))
	}
	pol := p.timeout()
	t := p.Tree
	sc.cands = sc.cands[:0]
	// Descendant class first (meet == u): peers strictly below u. Its
	// conditional loss probability is 1, so under constant-cost policies
	// (fastKeyPeerSelf) the scan's tie-break degenerates to min peer ID.
	if e := agg.selfWinner(u, mode); e.peer != graph.None {
		sc.cands = append(sc.cands, p.candidateOf(u, u, e.peer, pol))
	}
	// Ancestor classes, deepest first: exclude the branch leading to u.
	for x := u; t.Parent[x] != graph.None; x = t.Parent[x] {
		r := t.Parent[x]
		e := bestExcluding(&agg.byKey[r], agg.childPos[x])
		if e.peer != graph.None {
			sc.cands = append(sc.cands, p.candidateOf(u, r, e.peer, pol))
		}
	}
	return p.finishPlan(u, sc, pol, into)
}

// finishPlan runs the shared tail of both planning paths: candidate order,
// strategy graph, and the shortest-path solver over the shared scratch.
func (p *Planner) finishPlan(u graph.NodeID, sc *planScratch, pol TimeoutPolicy, into *Strategy) *Strategy {
	sortCandidates(sc.cands)
	srcRTT := p.Routes.RTT(u, p.Tree.Root)
	sg := &StrategyGraph{
		Client:            u,
		ClientDepth:       p.Tree.Depth[u],
		Candidates:        sc.cands,
		SourceRTT:         srcRTT,
		SourceTimeout:     pol.Timeout(srcRTT),
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
