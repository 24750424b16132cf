// Package core implements the paper's primary contribution: the RP
// ("Recovery strategy based on Prioritized list") algorithm of §3–4, which
// computes, for every multicast client, the prioritized list of peer clients
// that minimizes the expected recovery delay of a lost packet.
//
// The pipeline per client u is:
//
//  1. Partition the other clients into competitive equivalence classes by
//     their first common router with u (§4, Lemma 4) and keep the cheapest
//     member of each class (the "candidate clients").
//  2. Sort candidates by strictly descending meet depth DS ("meaningful
//     strategies", Lemma 5).
//  3. Build the strategy graph (Definition 1): a weighted DAG whose u⇝S
//     paths are exactly the meaningful recovery strategies, with path
//     length equal to the expected recovery delay of Eq. (3).
//  4. Run Algorithm 1 — DAG shortest path with the paper's
//     distance-vs-source prune — to extract the optimal strategy in O(N²).
//
// The expected-delay model follows §3: conditioned on u having lost the
// packet in a reliable network, the loss sits on exactly one link of the
// S→u tree path, uniformly (Lemmas 1–3 are the resulting telescoping
// conditionals). An attempt at peer v_j costs its RTT if v_j has the packet
// and the timeout t0_j otherwise.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/route"
)

// TimeoutPolicy chooses the per-attempt timeout t0 used both in planning
// (Eq. 1) and by the RP protocol engine at run time. §3.1 discusses the
// trade-off: a pure timeout grossly overestimates d(), a pure RTT estimate
// underestimates it; the combined estimate needs some t0. Implementations
// must be safe for concurrent use: batch planning calls Timeout from every
// worker at once.
type TimeoutPolicy interface {
	// Timeout returns t0 for an attempt whose estimated RTT is rtt.
	Timeout(rtt float64) float64
}

// FixedTimeout is a constant t0 in milliseconds, the paper's plain
// "let the timeout be t0".
type FixedTimeout float64

// Timeout implements TimeoutPolicy.
func (f FixedTimeout) Timeout(float64) float64 { return float64(f) }

// ProportionalTimeout sets t0 = factor·rtt — an adaptive timeout in the
// style of TCP RTO. The reproduction experiments use factor 3.
type ProportionalTimeout float64

// Timeout implements TimeoutPolicy.
func (p ProportionalTimeout) Timeout(rtt float64) float64 { return float64(p) * rtt }

// Candidate is one prospective recovery peer of a client u: the cheapest
// member of one competitive equivalence class.
type Candidate struct {
	// Peer is the candidate client.
	Peer graph.NodeID
	// Meet is R, the first common router of u and Peer on the tree.
	Meet graph.NodeID
	// DS is the hop count from the source to Meet along the tree.
	DS int32
	// RTT is the unicast round-trip estimate between u and Peer.
	RTT float64
	// Timeout is t0 for an attempt at Peer.
	Timeout float64
	// Priv is the number of tree links on Peer's private path below the
	// meet router (Depth[Peer] − DS) — the exposure the loss-aware model
	// charges against the peer (see aware.go).
	Priv int32
}

// Strategy is a computed recovery strategy for one client: the prioritized
// peer list, ending implicitly at the source.
type Strategy struct {
	// Client is u.
	Client graph.NodeID
	// ClientDepth is DS_u, the tree hop count from the source to u.
	ClientDepth int32
	// Peers is the prioritized list L_u = {v1 … vk}; may be empty, in
	// which case recovery goes straight to the source.
	Peers []Candidate
	// SourceRTT is the unicast round-trip estimate between u and S.
	SourceRTT float64
	// SourceTimeout is t0 for a source attempt (the protocol retries the
	// source forever, so this is a retransmission interval).
	SourceTimeout float64
	// ExpectedDelay is the modelled expected recovery delay of this
	// strategy (the strategy-graph shortest-path length).
	ExpectedDelay float64
}

// String renders the strategy compactly for logs and the cmd/strategy tool.
func (s *Strategy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "client %d (DS=%d):", s.Client, s.ClientDepth)
	for _, c := range s.Peers {
		fmt.Fprintf(&b, " →%d(DS=%d,rtt=%.2f)", c.Peer, c.DS, c.RTT)
	}
	fmt.Fprintf(&b, " →S(rtt=%.2f) E[delay]=%.3f", s.SourceRTT, s.ExpectedDelay)
	return b.String()
}

// Planner computes strategies for the clients of one multicast tree.
type Planner struct {
	// Tree is the multicast tree.
	Tree *mtree.Tree
	// Routes supplies RTT estimates (§3.1's routing-table method). Batch
	// planning queries it from every worker at once, so it must be safe for
	// concurrent readers, as route.Tables and route.TreeTables are.
	// lsr.Routing fills a destination's table on first use, so it is safe
	// only once the source and every client have been prepared, as
	// protocol.NewSessionPrebuilt does before it plans.
	Routes route.Router
	// Timeout is the per-attempt timeout policy; nil means
	// ProportionalTimeout(3).
	Timeout TimeoutPolicy
	// AllowDirectSource controls the (u→S) edge of the strategy graph.
	// Disabling it reproduces the paper's restricted strategies that
	// "alleviate congestion at source" (§4); the source then appears only
	// after at least one peer attempt (unless u has no candidates at all).
	AllowDirectSource bool
	// LossProb, when positive, switches planning to the loss-aware model
	// (see aware.go) with per-link survival q = 1−LossProb: candidate
	// selection and optimization then account for peers' private-path
	// losses, which the paper's reliable-network model ignores. Zero (the
	// default) is the paper-faithful planner.
	LossProb float64
	// DisableFastPath forces batch planning onto the O(N²) peer scan even
	// when the tree-aggregated path applies. Benchmark/testing knob; the
	// two paths produce identical strategies.
	DisableFastPath bool

	// Lazily built batch-planning state (see planall.go/treeagg.go): the
	// batch workers' scratches, grown to the worker count and bound once,
	// and the fast-path decision with its aggregate. The configuration
	// fields above must be set before the first batch call. Batch planning
	// methods are not safe for concurrent use on one Planner; each call
	// instead spreads its own clients over GOMAXPROCS workers. Per-client
	// methods like StrategyFor are safe for concurrent use: they plan
	// through a call-owned scratch and never write the Planner.
	scs     []planScratch
	agg     *treeAgg
	mode    fastMode
	modeSet bool
}

// meetRouter is implemented by routers that can answer an RTT query from the
// endpoints' precomputed meet router alone (route.TreeTables.RTTVia). Every
// candidate the planner builds carries its meet by construction, so on such
// routers the tree-aggregated path needs no LCA queries at all — the
// property that keeps BuildLite trees (no O(1) LCA index) off the planning
// critical path.
type meetRouter interface {
	RTTVia(a, b, meet graph.NodeID) float64
}

// NewPlanner returns a Planner with the default timeout policy and direct
// source access allowed.
func NewPlanner(t *mtree.Tree, rt route.Router) *Planner {
	return &Planner{Tree: t, Routes: rt, Timeout: ProportionalTimeout(3), AllowDirectSource: true}
}

func (p *Planner) timeout() TimeoutPolicy {
	if p.Timeout == nil {
		return ProportionalTimeout(3)
	}
	return p.Timeout
}

// Candidates computes the candidate clients of u (§4): the other group
// members partitioned into competitive classes by meet router, reduced to
// one winner per class (see beats), and sorted by strictly descending DS
// (Lemma 5).
func (p *Planner) Candidates(u graph.NodeID) []Candidate {
	if !p.Tree.Net.IsClient(u) {
		panic(fmt.Sprintf("core: Candidates of non-client node %d", u))
	}
	var sc planScratch
	sc.bind(p)
	p.scan(u, nil, &sc)
	sortCandidates(sc.cands)
	return sc.cands
}

// sortCandidates orders a candidate list the way every planning path
// requires: strictly descending DS (Lemma 5), with equal-DS classes broken
// by ascending peer ID. The tiebreak makes the order — and therefore any
// tie in the downstream shortest-path selection — independent of map
// iteration order, which the parallel harness needs for bit-identical
// reruns. The key is a total order (one winner per class), so the result
// is unique regardless of sorting algorithm; insertion sort handles the
// common short, mostly-sorted lists without sort.Slice's closure
// allocation, with slices.SortFunc (also allocation-free) past the cutoff.
func sortCandidates(cs []Candidate) {
	if len(cs) <= 32 {
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && candCmp(cs[j], cs[j-1]) < 0; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
		return
	}
	slices.SortFunc(cs, candCmp)
}

// candCmp is the candidate ordering: DS descending, then peer ascending.
func candCmp(a, b Candidate) int {
	if c := cmp.Compare(b.DS, a.DS); c != 0 {
		return c
	}
	return cmp.Compare(a.Peer, b.Peer)
}

// beats reports whether a wins u's competitive class over b: the one
// within-class winner rule every scan applies. Lemma 4 admits at most one
// member per class into an optimal list, and the cheapest is the only one
// that can appear there. "Cheapest" is the expected attempt cost at the
// widest prefix; with the paper's model (q=1) under a uniform timeout
// policy that is simply min-RTT. Ties break by lower peer ID, making the
// result deterministic; the paper breaks them "at random", which is
// equivalent for the objective value.
func (p *Planner) beats(u graph.NodeID, a, b *Candidate) bool {
	ac, bc := p.attemptCost(u, a), p.attemptCost(u, b)
	return ac < bc || (ac == bc && a.Peer < b.Peer)
}

// attemptCost is the expected cost of asking cand first (prefix DS_u),
// used only to rank members within one competitive class.
func (p *Planner) attemptCost(u graph.NodeID, cand *Candidate) float64 {
	pl := CondLossProbQ(cand.DS, p.Tree.Depth[u], cand.Priv, 1-p.LossProb)
	return (1-pl)*cand.RTT + pl*cand.Timeout
}

// StrategyFor computes the optimal recovery strategy for client u: the
// paper's Algorithm 1 on the strategy graph, or the loss-aware backward DP
// when LossProb is set (see aware.go).
func (p *Planner) StrategyFor(u graph.NodeID) *Strategy {
	sg := p.BuildStrategyGraph(u)
	if p.LossProb > 0 {
		return sg.OptimalDP(1 - p.LossProb)
	}
	return sg.Algorithm1()
}
