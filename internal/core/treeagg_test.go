package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// treeNet builds a tree-only topology (every link a tree link) with the
// given client count and seed.
func treeNet(t testing.TB, clients int, seed uint64) *topology.Network {
	t.Helper()
	cfg := topology.DefaultTreeConfig(clients)
	net, err := topology.GenerateTree(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// treePlanner builds one planner variant over a tree-only network. router
// "tree" uses TreeTables (tree metric by construction); "dijkstra" uses the
// standard Dijkstra tables, which on a tree-only network must pass the
// dominance check and agree with the tree metric.
func treePlanner(t testing.TB, net *topology.Network, router string) *Planner {
	t.Helper()
	tree := mtree.MustBuild(net)
	var rt route.Router
	switch router {
	case "tree":
		rt = route.NewTreeTables(tree)
	case "dijkstra":
		rt = route.Build(net)
	default:
		t.Fatalf("unknown router %q", router)
	}
	return NewPlanner(tree, rt)
}

// configure applies one of the planner configurations the fast path claims
// to support (and the loss-aware one it must refuse).
func configure(p *Planner, variant string) {
	switch variant {
	case "default":
	case "restricted":
		p.AllowDirectSource = false
	case "fixed":
		p.Timeout = FixedTimeout(120)
	case "prop0":
		p.Timeout = ProportionalTimeout(0)
	case "aware":
		p.LossProb = 0.1
	default:
		panic("unknown variant " + variant)
	}
}

var fastVariants = []string{"default", "restricted", "fixed", "prop0"}

// TestFastPathEligibility pins down when the tree-aggregated path engages:
// tree-metric routers with loss-unaware planning yes, loss-aware or chorded
// topologies no.
func TestFastPathEligibility(t *testing.T) {
	net := treeNet(t, 120, 1)
	for _, router := range []string{"tree", "dijkstra"} {
		for _, v := range fastVariants {
			p := treePlanner(t, net, router)
			configure(p, v)
			if !p.UsesFastPath() {
				t.Errorf("%s/%s: fast path not engaged on tree-only topology", router, v)
			}
		}
		aware := treePlanner(t, net, router)
		configure(aware, "aware")
		if aware.UsesFastPath() {
			t.Errorf("%s: loss-aware planner must fall back to the scan", router)
		}
	}
	// Negative proportional factors could invert the within-class ranking.
	neg := treePlanner(t, net, "tree")
	neg.Timeout = ProportionalTimeout(-1)
	if neg.UsesFastPath() {
		t.Error("negative proportional timeout must fall back to the scan")
	}
	// DisableFastPath is the benchmark knob.
	off := treePlanner(t, net, "tree")
	off.DisableFastPath = true
	if off.UsesFastPath() {
		t.Error("DisableFastPath ignored")
	}
	// Chorded topologies (the default generator, mean degree 3) fail the
	// dominance check under Dijkstra routing: a chord can shortcut a tree
	// path, so the ranking key would be wrong.
	chorded := topology.MustGenerate(topology.DefaultConfig(150), rng.New(3))
	pc := NewPlanner(mtree.MustBuild(chorded), route.Build(chorded))
	if pc.UsesFastPath() {
		t.Error("chorded topology must fall back to the scan")
	}
}

// TestPlanAllTreeMatchesStrategyFor is the tentpole oracle: on tree-metric
// topologies the aggregated path must be field-for-field identical to the
// per-client scan path (StrategyFor), across routers and configurations.
func TestPlanAllTreeMatchesStrategyFor(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		net := treeNet(t, 200, seed)
		for _, router := range []string{"tree", "dijkstra"} {
			for _, v := range fastVariants {
				p := treePlanner(t, net, router)
				configure(p, v)
				batch := p.PlanAllDense()
				if !p.UsesFastPath() {
					t.Fatalf("%s/%s: expected fast path", router, v)
				}
				if len(batch) != len(p.Tree.Clients) {
					t.Fatalf("%s/%s: %d strategies for %d clients",
						router, v, len(batch), len(p.Tree.Clients))
				}
				for i, u := range p.Tree.Clients {
					want := p.StrategyFor(u)
					if !reflect.DeepEqual(batch[i], want) {
						t.Fatalf("%s/%s seed %d client %d:\n fast %v\n scan %v",
							router, v, seed, u, batch[i], want)
					}
				}
			}
		}
	}
}

// TestPlanAllIntoReuses asserts PlanAllDenseInto updates the caller's
// slice and Strategy values in place and still matches a fresh computation,
// on the fast path and on the scan fallback.
func TestPlanAllIntoReuses(t *testing.T) {
	chorded := topology.MustGenerate(topology.DefaultConfig(100), rng.New(2))
	for _, p := range []*Planner{
		treePlanner(t, treeNet(t, 150, 9), "tree"),
		treePlanner(t, treeNet(t, 150, 9), "dijkstra"),
		NewPlanner(mtree.MustBuild(chorded), route.Build(chorded)),
	} {
		out := p.PlanAllDense()
		first := slices.Clone(out)
		again := p.PlanAllDenseInto(out)
		if &again[0] != &out[0] {
			t.Fatal("PlanAllDenseInto returned a different slice")
		}
		for i, st := range again {
			if first[i] != st {
				t.Fatalf("client %d: Strategy reallocated on reuse", p.Tree.Clients[i])
			}
		}
		if fresh := p.PlanAllDense(); !reflect.DeepEqual(again, fresh) {
			t.Fatal("reused PlanAllDenseInto result differs from a fresh PlanAllDense")
		}
	}
}

// TestFastPathEquivalenceFuzz cross-checks fast vs scan over many random
// tree topologies × configurations × routers — the property the acceptance
// criteria require.
func TestFastPathEquivalenceFuzz(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		cfg := topology.DefaultTreeConfig(10 + rnd.Intn(150))
		cfg.ClientsPerRouter = 1 + rnd.Intn(6)
		net, err := topology.GenerateTree(cfg, rng.New(uint64(i)+100))
		if err != nil {
			t.Fatal(err)
		}
		router := []string{"tree", "dijkstra"}[rnd.Intn(2)]
		variant := fastVariants[rnd.Intn(len(fastVariants))]
		fast := treePlanner(t, net, router)
		configure(fast, variant)
		scan := treePlanner(t, net, router)
		configure(scan, variant)
		scan.DisableFastPath = true
		got, want := fast.PlanAllDense(), scan.PlanAllDense()
		if !fast.UsesFastPath() || scan.UsesFastPath() {
			t.Fatalf("iter %d: path selection wrong", i)
		}
		for j, u := range fast.Tree.Clients {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("iter %d (%s/%s, %d clients) client %d:\n fast %v\n scan %v",
					i, router, variant, len(got), u, got[j], want[j])
			}
		}
	}
}

// FuzzFastPathEquivalence is the go-fuzz entry for the same property, so
// `make fuzz` can search for divergent topologies beyond the fixed seeds.
func FuzzFastPathEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(4), uint8(0))
	f.Add(uint64(9), uint16(120), uint8(1), uint8(1))
	f.Add(uint64(77), uint16(15), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, clients uint16, perRouter, variant uint8) {
		n := 2 + int(clients)%250
		cfg := topology.DefaultTreeConfig(n)
		cfg.ClientsPerRouter = 1 + int(perRouter)%8
		net, err := topology.GenerateTree(cfg, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		v := fastVariants[int(variant)%len(fastVariants)]
		fast := treePlanner(t, net, "tree")
		configure(fast, v)
		scan := treePlanner(t, net, "tree")
		configure(scan, v)
		scan.DisableFastPath = true
		got, want := fast.PlanAllDense(), scan.PlanAllDense()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast/scan divergence (%s, %d clients)", v, n)
		}
	})
}

// TestRosterChurnTreeAggMatchesScan drives a roster over a tree-metric
// topology (aggregate path) through random churn and checks every strategy
// after every step against a scan-based roster and a from-scratch rebuilt
// aggregate — the incremental-update-vs-full-rebuild equivalence.
func TestRosterChurnTreeAggMatchesScan(t *testing.T) {
	net := treeNet(t, 90, 5)
	tree := mtree.MustBuild(net)
	rt := route.NewTreeTables(tree)
	for _, variant := range []string{"default", "fixed"} {
		p := NewPlanner(tree, rt)
		configure(p, variant)
		r := NewRoster(p)
		if r.agg == nil {
			t.Fatal("roster did not engage the aggregate on a tree-metric planner")
		}
		pScan := NewPlanner(tree, rt)
		configure(pScan, variant)
		pScan.DisableFastPath = true
		rScan := NewRoster(pScan)
		if rScan.agg != nil {
			t.Fatal("DisableFastPath roster should not build an aggregate")
		}

		rnd := rand.New(rand.NewSource(11))
		var inactive []graph.NodeID
		for step := 0; step < 60; step++ {
			if len(inactive) == 0 || (rnd.Intn(2) == 0 && len(inactive) < len(net.Clients)-1) {
				v := net.Clients[rnd.Intn(len(net.Clients))]
				if !r.Active(v) {
					continue
				}
				if _, err := r.Leave(v); err != nil {
					t.Fatal(err)
				}
				if _, err := rScan.Leave(v); err != nil {
					t.Fatal(err)
				}
				inactive = append(inactive, v)
			} else {
				i := rnd.Intn(len(inactive))
				v := inactive[i]
				inactive = append(inactive[:i], inactive[i+1:]...)
				if _, err := r.Join(v); err != nil {
					t.Fatal(err)
				}
				if _, err := rScan.Join(v); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(r.StrategiesDense(nil), rScan.StrategiesDense(nil)) {
				t.Fatalf("%s step %d: aggregate roster diverged from scan roster", variant, step)
			}
			if r.Epoch() != rScan.Epoch() {
				t.Fatalf("%s step %d: epochs diverged (%d vs %d)", variant, step, r.Epoch(), rScan.Epoch())
			}
			// Incrementally-updated aggregate == aggregate rebuilt from the
			// current active set.
			fresh := newTreeAgg(tree)
			for _, c := range tree.Clients {
				if !r.Active(c) {
					fresh.setActive(c, false)
				}
			}
			if !reflect.DeepEqual(r.agg.byKey, fresh.byKey) || !reflect.DeepEqual(r.agg.byPeer, fresh.byPeer) {
				t.Fatalf("%s step %d: incremental aggregate != full rebuild", variant, step)
			}
			// Incrementally-churned roster == roster rebuilt from scratch
			// over the current membership (the strategy service's
			// full-replan fallback), compared in the dense snapshot layout.
			var members []graph.NodeID
			for _, c := range tree.Clients {
				if r.Active(c) {
					members = append(members, c)
				}
			}
			rebuilt := NewRosterActive(p, members)
			if !reflect.DeepEqual(r.StrategiesDense(nil), rebuilt.StrategiesDense(nil)) {
				t.Fatalf("%s step %d: incremental roster != full replan", variant, step)
			}
			if !reflect.DeepEqual(r.OccupancyDense(nil), rebuilt.OccupancyDense(nil)) {
				t.Fatalf("%s step %d: occupancy diverged from full replan", variant, step)
			}
		}
	}
}

// TestSortCandidatesMatchesReference checks the insertion/SortFunc hybrid
// against the ordering contract on random lists, including the >32 branch.
func TestSortCandidatesMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rnd.Intn(80)
		cs := make([]Candidate, n)
		for i := range cs {
			cs[i] = Candidate{DS: int32(rnd.Intn(10)), Peer: graph.NodeID(rnd.Intn(1000))}
		}
		sortCandidates(cs)
		for i := 1; i < len(cs); i++ {
			if candCmp(cs[i-1], cs[i]) > 0 {
				t.Fatalf("trial %d: out of order at %d: %+v then %+v", trial, i, cs[i-1], cs[i])
			}
		}
	}
}

// TestPlanAllIntoSteadyStateAllocs asserts the fast path's replan loop is
// allocation-free once warmed up — the contract the scaling tier and the
// million-client planning cell rely on.
func TestPlanAllIntoSteadyStateAllocs(t *testing.T) {
	p := treePlanner(t, treeNet(t, 300, 13), "tree")
	out := p.PlanAllDense() // warm: slice, strategies, scratch, aggregate
	if allocs := testing.AllocsPerRun(20, func() {
		p.PlanAllDenseInto(out)
	}); allocs > 0 {
		t.Fatalf("steady-state PlanAllDenseInto allocates %.1f/op, want 0", allocs)
	}
}

// TestSortCandidatesZeroAlloc pins the satellite requirement: no closure or
// reflection allocation in the hot sort.
func TestSortCandidatesZeroAlloc(t *testing.T) {
	for _, n := range []int{8, 200} {
		cs := make([]Candidate, n)
		for i := range cs {
			cs[i] = Candidate{DS: int32(i % 7), Peer: graph.NodeID(n - i)}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			sortCandidates(cs)
		}); allocs > 0 {
			t.Fatalf("sortCandidates(%d) allocates %.1f/op, want 0", n, allocs)
		}
	}
}
