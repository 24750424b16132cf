package core

import (
	"math"

	"rmcast/internal/graph"
)

// StrategyGraph is the paper's Definition 1: an edge-weighted DAG over
// {u, v1 … vN, S} whose u⇝S paths enumerate exactly the meaningful recovery
// strategies of client u, with path length equal to expected recovery delay.
//
// Node indexing inside the DAG: 0 is u, 1..N are the candidates in strictly
// descending-DS order, N+1 is S. All arcs go from lower to higher index, so
// that ordering is simultaneously the topological order used by Algorithm 1.
//
// The paper writes the inter-candidate weight as w(v_i→v_j) =
// (DS_i/DS)·d(v_j) with the position dependence of d(v_j) (Eq. 1) left
// implicit; since each arc knows both endpoints we encode the exact
// predecessor-conditioned attempt cost, so path length equals the exact
// expectation (see DESIGN.md §4). Tests verify path lengths against both
// EvalMeaningful (Eq. 3) and EvalAny (first-principles model).
type StrategyGraph struct {
	// Client is u; ClientDepth is DS_u.
	Client      graph.NodeID
	ClientDepth int32
	// Candidates are u's candidate clients, strictly descending in DS.
	Candidates []Candidate
	// SourceRTT and SourceTimeout describe the final source attempt.
	SourceRTT     float64
	SourceTimeout float64
	// AllowDirectSource mirrors the planner option: when false the (u→S)
	// arc is omitted (restricted strategies, §4).
	AllowDirectSource bool
}

// BuildStrategyGraph assembles the strategy graph for client u.
func (p *Planner) BuildStrategyGraph(u graph.NodeID) *StrategyGraph {
	srcRTT := p.Routes.RTT(u, p.Tree.Root)
	return &StrategyGraph{
		Client:            u,
		ClientDepth:       p.Tree.Depth[u],
		Candidates:        p.Candidates(u),
		SourceRTT:         srcRTT,
		SourceTimeout:     p.timeout().Timeout(srcRTT),
		AllowDirectSource: p.AllowDirectSource,
	}
}

// NumNodes returns the DAG's node count: u + N candidates + S.
func (sg *StrategyGraph) NumNodes() int { return len(sg.Candidates) + 2 }

// arcWeight returns the weight of the arc from DAG node i to DAG node j
// (i < j), or NaN if the arc does not exist. Node 0 is u; node
// len(Candidates)+1 is S.
func (sg *StrategyGraph) arcWeight(i, j int) float64 {
	n := len(sg.Candidates)
	src := n + 1
	dsU := float64(sg.ClientDepth)
	// Predecessor's loss-prefix depth: DS_u when coming from u itself.
	var dsPrev float64
	if i == 0 {
		dsPrev = dsU
	} else {
		dsPrev = float64(sg.Candidates[i-1].DS)
	}
	switch {
	case j == src:
		if i == 0 && !sg.AllowDirectSource {
			return math.NaN()
		}
		// Reach probability dsPrev/dsU times the (certain) source RTT.
		return dsPrev / dsU * sg.SourceRTT
	case j >= 1 && j <= n && j > i:
		c := sg.Candidates[j-1]
		dsJ := float64(c.DS)
		if dsJ >= dsPrev {
			// Cannot happen for strictly descending candidates, but guard
			// anyway: such an arc would model a zero-information attempt.
			return math.NaN()
		}
		// (dsPrev/dsU) · [ rtt·(1 − dsJ/dsPrev) + t0·(dsJ/dsPrev) ]
		return (c.RTT*(dsPrev-dsJ) + c.Timeout*dsJ) / dsU
	}
	return math.NaN()
}

// Digraph materialises the strategy graph as an explicit graph.Digraph, for
// inspection, printing, and cross-validation against the generic DAG
// shortest-path routine. Node IDs follow the DAG indexing above.
func (sg *StrategyGraph) Digraph() *graph.Digraph {
	n := sg.NumNodes()
	d := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := sg.arcWeight(i, j); !math.IsNaN(w) {
				d.AddArc(graph.NodeID(i), graph.NodeID(j), w)
			}
		}
	}
	return d
}

// Algorithm1 is the paper's Algorithm 1 ("Searching_Minimal_Delay"): DAG
// shortest path from u to S, processing vertices in the order
// u, v1, …, vN, S and skipping any vertex whose tentative distance already
// meets or exceeds the tentative distance of S (the paper's step-4 prune —
// such a vertex cannot improve any path). Runs in O(N²).
func (sg *StrategyGraph) Algorithm1() *Strategy {
	return sg.algorithm1(nil, nil, nil, nil)
}

// algorithm1 is Algorithm1 with caller-provided scratch buffers and an
// optional Strategy to fill in place, so the batch planner (PlanAllDense) can
// amortise the per-client allocations. nil buffers (the public entry point)
// allocate fresh ones; a nil into allocates a fresh Strategy.
func (sg *StrategyGraph) algorithm1(dist []float64, parent, rev []int, into *Strategy) *Strategy {
	n := len(sg.Candidates)
	srcIdx := n + 1
	if cap(dist) < n+2 {
		dist = make([]float64, n+2)
	}
	dist = dist[:n+2]
	if cap(parent) < n+2 {
		parent = make([]int, n+2)
	}
	parent = parent[:n+2]
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[0] = 0
	for x := 0; x <= n; x++ { // S itself has no outgoing arcs
		if math.IsInf(dist[x], 1) {
			continue
		}
		// Step 4 prune: a node no closer than S cannot start a shorter
		// suffix (all weights are non-negative).
		if dist[x] >= dist[srcIdx] {
			continue
		}
		for y := x + 1; y <= srcIdx; y++ {
			w := sg.arcWeight(x, y)
			if math.IsNaN(w) {
				continue
			}
			if nd := dist[x] + w; nd < dist[y] {
				dist[y] = nd
				parent[y] = x
			}
		}
	}
	return sg.extract(dist, parent, rev, into)
}

// ShortestPathDAG computes the same optimum via the generic topological
// relaxation (graph.DAGShortestPaths) over the explicit digraph. It exists
// to cross-check Algorithm 1 in tests and costs an extra materialisation.
func (sg *StrategyGraph) ShortestPathDAG() *Strategy {
	d := sg.Digraph()
	order := make([]graph.NodeID, d.NumNodes())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	dist, par := graph.DAGShortestPaths(d, 0, order)
	parent := make([]int, len(par))
	for i, p := range par {
		parent[i] = int(p)
	}
	return sg.extract(dist, parent, nil, nil)
}

// extract walks parent pointers from S back to u and assembles a Strategy.
// If S is unreachable (restricted graph with zero candidates) it falls back
// to the direct-source strategy, which the protocol needs as a last resort
// regardless of planning restrictions. rev is optional walk scratch; into,
// when non-nil, is reset and filled in place (its Peers array is reused).
func (sg *StrategyGraph) extract(dist []float64, parent, rev []int, into *Strategy) *Strategy {
	n := len(sg.Candidates)
	srcIdx := n + 1
	st := into
	if st == nil {
		st = &Strategy{}
	}
	st.Client = sg.Client
	st.ClientDepth = sg.ClientDepth
	st.Peers = st.Peers[:0]
	st.SourceRTT = sg.SourceRTT
	st.SourceTimeout = sg.SourceTimeout
	if math.IsInf(dist[srcIdx], 1) {
		st.ExpectedDelay = sg.SourceRTT
		return st
	}
	rev = rev[:0]
	for x := srcIdx; x != 0; x = parent[x] {
		rev = append(rev, x)
		if parent[x] < 0 {
			break
		}
	}
	// rev holds S, vk, …, v1 (excluding u). Collect candidates in order.
	for i := len(rev) - 1; i >= 0; i-- {
		idx := rev[i]
		if idx >= 1 && idx <= n {
			st.Peers = append(st.Peers, sg.Candidates[idx-1])
		}
	}
	st.ExpectedDelay = dist[srcIdx]
	return st
}
