package core

import (
	"math"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// syntheticGraph builds a StrategyGraph directly from synthetic candidates,
// bypassing topology construction, for focused algorithm tests.
func syntheticGraph(r *rng.Rand, maxCands int, allowDirect bool) *StrategyGraph {
	dsU := int32(3 + r.Intn(15))
	n := r.Intn(maxCands + 1)
	// Distinct DS values strictly below dsU, descending.
	ds := map[int32]bool{}
	var cands []Candidate
	for len(cands) < n && len(ds) < int(dsU) {
		d := int32(r.Intn(int(dsU)))
		if ds[d] {
			continue
		}
		ds[d] = true
		rtt := r.Uniform(1, 60)
		cands = append(cands, Candidate{
			Peer:    0,
			DS:      d,
			RTT:     rtt,
			Timeout: r.Uniform(1, 4) * rtt,
		})
	}
	// Sort descending by DS.
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].DS > cands[i].DS {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	srcRTT := r.Uniform(20, 300)
	return &StrategyGraph{
		Client:            1,
		ClientDepth:       dsU,
		Candidates:        cands,
		SourceRTT:         srcRTT,
		SourceTimeout:     3 * srcRTT,
		AllowDirectSource: allowDirect,
	}
}

func TestAlgorithm1MatchesGenericDAGSP(t *testing.T) {
	r := rng.New(31337)
	for trial := 0; trial < 400; trial++ {
		sg := syntheticGraph(r, 12, trial%2 == 0)
		a := sg.Algorithm1()
		b := sg.ShortestPathDAG()
		if math.Abs(a.ExpectedDelay-b.ExpectedDelay) > 1e-9 {
			t.Fatalf("trial %d: Algorithm1 %v != DAG SP %v", trial,
				a.ExpectedDelay, b.ExpectedDelay)
		}
		if len(a.Peers) != len(b.Peers) {
			// Equal-cost alternates are possible in principle but with
			// continuous random weights should not occur.
			t.Fatalf("trial %d: different list lengths %d vs %d",
				trial, len(a.Peers), len(b.Peers))
		}
	}
}

func TestAlgorithm1MatchesBruteForce(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 300; trial++ {
		sg := syntheticGraph(r, 10, true)
		st := sg.Algorithm1()
		best, bestList := BruteForceMeaningful(sg.Candidates, sg.ClientDepth, sg.SourceRTT)
		if math.Abs(st.ExpectedDelay-best) > 1e-9 {
			t.Fatalf("trial %d: Algorithm1 %v != brute force %v (list %v vs %v)",
				trial, st.ExpectedDelay, best, st.Peers, bestList)
		}
	}
}

// TestAlgorithm1BeatsAnyOrder validates Lemmas 4 and 5 empirically: the
// optimum over meaningful strategies (what Algorithm 1 searches) equals the
// optimum over ALL ordered peer sequences, including non-descending orders
// and competitive duplicates.
func TestAlgorithm1BeatsAnyOrder(t *testing.T) {
	r := rng.New(7331)
	for trial := 0; trial < 60; trial++ {
		dsU := int32(3 + r.Intn(8))
		nPool := 1 + r.Intn(5)
		// One timeout policy for the whole pool — the planner invariant
		// that makes min-RTT-per-class candidate selection optimal.
		beta := r.Uniform(1.5, 4)
		pool := make([]AttemptRef, nPool)
		for i := range pool {
			rtt := r.Uniform(1, 50)
			pool[i] = AttemptRef{
				DS:      int32(r.Intn(int(dsU))),
				RTT:     rtt,
				Timeout: beta * rtt,
			}
		}
		srcRTT := r.Uniform(20, 200)

		// Candidates: cheapest per DS class, descending.
		best := map[int32]AttemptRef{}
		for _, a := range pool {
			if cur, ok := best[a.DS]; !ok || a.RTT < cur.RTT {
				best[a.DS] = a
			}
		}
		var cands []Candidate
		for ds, a := range best {
			cands = append(cands, Candidate{DS: ds, RTT: a.RTT, Timeout: a.Timeout})
		}
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				if cands[j].DS > cands[i].DS {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		sg := &StrategyGraph{
			Client: 1, ClientDepth: dsU, Candidates: cands,
			SourceRTT: srcRTT, SourceTimeout: 3 * srcRTT, AllowDirectSource: true,
		}
		algo := sg.Algorithm1().ExpectedDelay
		exhaustive := BruteForceAnyOrder(pool, dsU, srcRTT)
		if algo > exhaustive+1e-9 {
			t.Fatalf("trial %d: Algorithm1 %v worse than exhaustive %v",
				trial, algo, exhaustive)
		}
		if exhaustive < algo-1e-9 {
			t.Fatalf("trial %d: exhaustive %v beat Algorithm1 %v — lemma violation",
				trial, exhaustive, algo)
		}
	}
}

func TestStrategyGraphPathLengthEqualsEval(t *testing.T) {
	// The strategy-graph path length must equal the independent evaluation
	// of the extracted list — on synthetic and real instances.
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		sg := syntheticGraph(r, 10, true)
		st := sg.Algorithm1()
		if ev := st.Evaluate(); math.Abs(ev-st.ExpectedDelay) > 1e-9*(1+ev) {
			t.Fatalf("trial %d: path length %v != evaluation %v",
				trial, st.ExpectedDelay, ev)
		}
	}
}

func TestStrategyGraphExplicitDigraphShape(t *testing.T) {
	r := rng.New(5)
	sg := syntheticGraph(r, 6, true)
	n := len(sg.Candidates)
	d := sg.Digraph()
	if d.NumNodes() != n+2 {
		t.Fatalf("digraph nodes %d, want %d", d.NumNodes(), n+2)
	}
	// Definition 1 edge count: u→each candidate (n) + u→S (1) +
	// v_i→v_j for i<j (n(n-1)/2) + v_i→S (n).
	want := n + 1 + n*(n-1)/2 + n
	if d.NumArcs() != want {
		t.Fatalf("digraph arcs %d, want %d", d.NumArcs(), want)
	}
}

func TestStrategyGraphRestrictedOmitsDirectArc(t *testing.T) {
	r := rng.New(6)
	var sg *StrategyGraph
	for {
		sg = syntheticGraph(r, 6, false)
		if len(sg.Candidates) > 0 {
			break
		}
	}
	d := sg.Digraph()
	srcIdx := len(sg.Candidates) + 1
	for _, a := range d.Out(0) {
		if int(a.To) == srcIdx {
			t.Fatal("restricted graph still has u→S arc")
		}
	}
}

func TestAlgorithm1OnRealTopologies(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		net := topology.MustGenerate(topology.DefaultConfig(70), rng.New(seed))
		tr := mtree.MustBuild(net)
		p := NewPlanner(tr, route.Build(net))
		for _, u := range net.Clients {
			sg := p.BuildStrategyGraph(u)
			st := sg.Algorithm1()
			ref := sg.ShortestPathDAG()
			if math.Abs(st.ExpectedDelay-ref.ExpectedDelay) > 1e-9 {
				t.Fatalf("seed %d client %d: algo %v vs dag %v",
					seed, u, st.ExpectedDelay, ref.ExpectedDelay)
			}
			if len(sg.Candidates) <= 14 {
				bf, _ := BruteForceMeaningful(sg.Candidates, sg.ClientDepth, sg.SourceRTT)
				if math.Abs(st.ExpectedDelay-bf) > 1e-9 {
					t.Fatalf("seed %d client %d: algo %v vs brute %v",
						seed, u, st.ExpectedDelay, bf)
				}
			}
		}
	}
}

func TestBruteForceGuards(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("oversized BruteForceMeaningful accepted")
			}
		}()
		BruteForceMeaningful(make([]Candidate, 25), 30, 10)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("oversized BruteForceAnyOrder accepted")
			}
		}()
		BruteForceAnyOrder(make([]AttemptRef, 9), 30, 10)
	}()
}

func BenchmarkAlgorithm1(b *testing.B) {
	r := rng.New(1)
	graphs := make([]*StrategyGraph, 64)
	for i := range graphs {
		graphs[i] = syntheticGraph(r, 14, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graphs[i&63].Algorithm1()
	}
}

func BenchmarkStrategyGraphScaling(b *testing.B) {
	// O(N²) scaling probe for EXPERIMENTS E5: synthetic candidate lists of
	// growing size.
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(byteSize(n), func(b *testing.B) {
			cands := make([]Candidate, n)
			for i := range cands {
				cands[i] = Candidate{DS: int32(n - i), RTT: float64(1 + i%17), Timeout: float64(3 + i%29)}
			}
			sg := &StrategyGraph{
				Client: 1, ClientDepth: int32(n + 1), Candidates: cands,
				SourceRTT: 100, SourceTimeout: 300, AllowDirectSource: true,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sg.Algorithm1()
			}
		})
	}
}

func byteSize(n int) string {
	switch n {
	case 8:
		return "N=8"
	case 32:
		return "N=32"
	case 128:
		return "N=128"
	case 512:
		return "N=512"
	}
	return "N=?"
}

func BenchmarkPlannerAllClients600(b *testing.B) {
	net := topology.MustGenerate(topology.DefaultConfig(600), rng.New(1))
	tr := mtree.MustBuild(net)
	rt := route.Build(net)
	p := NewPlanner(tr, rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PlanAllDense()
	}
}
