package core

import (
	"math"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

func TestCondLossProbQReducesToPaperModel(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		ds := int32(r.Intn(10))
		prefix := int32(1 + r.Intn(10))
		priv := int32(r.Intn(8))
		if got, want := CondLossProbQ(ds, prefix, priv, 1), CondLossProb(ds, prefix); got != want {
			t.Fatalf("q=1 mismatch: %v vs %v", got, want)
		}
	}
}

func TestCondLossProbQHandExample(t *testing.T) {
	// shared = 2/4 = .5; private loss = 1 - 0.9² = 0.19;
	// total = .5 + .5·0.19 = 0.595.
	got := CondLossProbQ(2, 4, 2, 0.9)
	if math.Abs(got-0.595) > 1e-12 {
		t.Fatalf("got %v, want 0.595", got)
	}
	if CondLossProbQ(2, 4, 3, 0) != 1 {
		t.Fatal("q=0 with private links should be certain loss")
	}
	if CondLossProbQ(2, 4, 0, 0.5) != 0.5 {
		t.Fatal("no private links: q must not matter")
	}
}

func TestEvalAnyQReducesToEvalAny(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		dsU := int32(2 + r.Intn(12))
		n := r.Intn(5)
		list := make([]AttemptRef, n)
		for i := range list {
			list[i] = AttemptRef{
				DS:      int32(r.Intn(int(dsU))),
				RTT:     r.Uniform(1, 50),
				Timeout: r.Uniform(10, 150),
				Priv:    int32(r.Intn(6)),
			}
		}
		src := r.Uniform(20, 200)
		a := EvalAny(list, dsU, src)
		b := EvalAnyQ(list, dsU, src, 1)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("EvalAnyQ(q=1) %v != EvalAny %v", b, a)
		}
	}
}

func TestEvalAnyQMonotoneInQ(t *testing.T) {
	// With timeouts above RTTs, lower survival can only raise expected
	// delay.
	list := []AttemptRef{
		{DS: 3, RTT: 10, Timeout: 30, Priv: 4},
		{DS: 1, RTT: 20, Timeout: 60, Priv: 2},
	}
	prev := math.Inf(1)
	for _, q := range []float64{0.5, 0.7, 0.9, 0.99, 1} {
		v := EvalAnyQ(list, 6, 100, q)
		if v > prev+1e-12 {
			t.Fatalf("expected delay not non-increasing in q: q=%v gives %v after %v", q, v, prev)
		}
		prev = v
	}
	lo := EvalAnyQ(list, 6, 100, 0.5)
	hi := EvalAnyQ(list, 6, 100, 1)
	if lo <= hi {
		t.Fatalf("q=0.5 (%v) should cost more than q=1 (%v)", lo, hi)
	}
}

func TestOptimalDPMatchesAlgorithm1AtQ1(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 300; trial++ {
		sg := syntheticGraph(r, 12, trial%2 == 0)
		// Give candidates private tails (ignored at q=1).
		for i := range sg.Candidates {
			sg.Candidates[i].Priv = int32(r.Intn(6))
		}
		dp := sg.OptimalDP(1)
		a1 := sg.Algorithm1()
		if math.Abs(dp.ExpectedDelay-a1.ExpectedDelay) > 1e-9 {
			t.Fatalf("trial %d: DP %v != Algorithm1 %v", trial,
				dp.ExpectedDelay, a1.ExpectedDelay)
		}
		if len(dp.Peers) != len(a1.Peers) {
			t.Fatalf("trial %d: DP list %v != Algorithm1 list %v",
				trial, dp.Peers, a1.Peers)
		}
	}
}

// bruteForceQ enumerates all ordered subsets of the candidates (preserving
// descending-DS order) under EvalAnyQ.
func bruteForceQ(cands []Candidate, dsU int32, srcRTT, q float64) float64 {
	n := len(cands)
	best := math.Inf(1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		var list []AttemptRef
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				c := cands[i]
				list = append(list, AttemptRef{DS: c.DS, RTT: c.RTT, Timeout: c.Timeout, Priv: c.Priv})
			}
		}
		if v := EvalAnyQ(list, dsU, srcRTT, q); v < best {
			best = v
		}
	}
	return best
}

func TestOptimalDPMatchesBruteForceUnderQ(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		sg := syntheticGraph(r, 9, true)
		for i := range sg.Candidates {
			sg.Candidates[i].Priv = int32(r.Intn(8))
		}
		q := r.Uniform(0.7, 1)
		dp := sg.OptimalDP(q)
		want := bruteForceQ(sg.Candidates, sg.ClientDepth, sg.SourceRTT, q)
		if math.Abs(dp.ExpectedDelay-want) > 1e-9 {
			t.Fatalf("trial %d: DP %v != brute force %v (q=%v)",
				trial, dp.ExpectedDelay, want, q)
		}
		// The DP's stored delay must agree with independent evaluation.
		if ev := dp.EvaluateQ(q); math.Abs(ev-dp.ExpectedDelay) > 1e-9 {
			t.Fatalf("trial %d: stored %v != EvaluateQ %v", trial, dp.ExpectedDelay, ev)
		}
	}
}

func TestOptimalDPRestrictedUsesPeerFirst(t *testing.T) {
	r := rng.New(5)
	found := 0
	for trial := 0; trial < 100 && found < 20; trial++ {
		sg := syntheticGraph(r, 8, false) // restricted
		if len(sg.Candidates) == 0 {
			continue
		}
		found++
		dp := sg.OptimalDP(0.95)
		if len(dp.Peers) == 0 {
			t.Fatalf("restricted DP went straight to source with %d candidates",
				len(sg.Candidates))
		}
	}
	if found == 0 {
		t.Fatal("no instances with candidates generated")
	}
}

func TestLossAwarePlannerDropsRiskyPeers(t *testing.T) {
	// The peer sits behind a long private chain below the meet router:
	// under the paper model it looks attractive (deep meet, modest RTT,
	// and a 30 ms source haul that makes the direct source attempt
	// dearer); under the loss-aware model its private path makes it a bad
	// bet.
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2 := b.Router(), b.Router()
	b.TreeLink(src, r1, 30)
	b.TreeLink(r1, r2, 1)
	u := b.Client()
	b.TreeLink(r2, u, 1)
	// Peer behind 8 private links below r2.
	prev := r2
	for i := 0; i < 8; i++ {
		rr := b.Router()
		b.TreeLink(prev, rr, 0.2)
		prev = rr
	}
	v := b.Client()
	b.TreeLink(prev, v, 0.2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.SetUniformLoss(0.15)
	tree := mtree.MustBuild(topo)
	rt := route.Build(topo)

	paper := NewPlanner(tree, rt)
	stPaper := paper.StrategyFor(u)

	aware := NewPlanner(tree, rt)
	aware.LossProb = 0.15
	stAware := aware.StrategyFor(u)

	if len(stPaper.Peers) == 0 {
		t.Fatalf("paper model rejects the peer on this geometry: %v", stPaper)
	}
	if len(stAware.Peers) != 0 {
		t.Fatalf("loss-aware planner kept the risky peer: %v", stAware.Peers)
	}
}

func TestPlannerLossProbEndToEnd(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(80), rng.New(9))
	tree := mtree.MustBuild(net)
	rt := route.Build(net)
	p := NewPlanner(tree, rt)
	p.LossProb = 0.1
	for _, u := range net.Clients {
		st := p.StrategyFor(u)
		if st.ExpectedDelay <= 0 {
			t.Fatalf("client %d: bad aware strategy %+v", u, st)
		}
		// Aware expectation must be self-consistent.
		if ev := st.EvaluateQ(0.9); math.Abs(ev-st.ExpectedDelay) > 1e-9 {
			t.Fatalf("client %d: stored %v != EvaluateQ %v", u, st.ExpectedDelay, ev)
		}
	}
}
