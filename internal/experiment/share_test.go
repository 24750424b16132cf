package experiment

import (
	"fmt"
	"strings"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// referenceRows runs every cell of g through Run, each on a network of its
// own, and folds the replicates as grid.run does.
func referenceRows(t *testing.T, g *grid) []Row {
	t.Helper()
	reps := max(g.replicates, 1)
	rows := make([]Row, len(g.rows))
	for r := range rows {
		rows[r].Points = map[string]Point{}
		for _, p := range g.protocols {
			var agg Point
			for rep := 0; rep < reps; rep++ {
				spec := g.spec(r, rep)
				spec.Protocol = p
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("%s %s rep %d: %v", g.rows[r].Label, p, rep, err)
				}
				if rep == 0 {
					agg = cellPoint(res)
				} else {
					agg.merge(cellPoint(res))
				}
			}
			rows[r].Points[p] = agg
		}
	}
	return rows
}

// TestSweepsShareNetworks: every grid sweep, running each network's cells
// on one shared build, gives exactly the points of Run called cell by cell,
// at one worker and at four.
func TestSweepsShareNetworks(t *testing.T) {
	size := GroupSizeSweep{Sizes: []int{30, 60}, Loss: 0.05, Packets: 15, Interval: 50, Replicates: 2, BaseSeed: 7}
	loss := LossSweep{Routers: 60, LossPcts: []float64{2, 10, 20}, Packets: 15, Interval: 50, Replicates: 2, BaseSeed: 7}
	abl := PaperAblation()
	abl.Routers, abl.Packets = 40, 10
	chaos := DefaultRobustness("chaos")
	chaos.Routers, chaos.Packets = 40, 15
	churn := DefaultRobustness("churn")
	churn.Routers, churn.Packets = 40, 15
	adv := DefaultRobustness("adversarial")
	adv.Routers, adv.Packets = 40, 15
	for _, tc := range []struct {
		name string
		grid func() *grid
		run  func(parallel int) (*Figure, error)
	}{
		{"figure 5-6", size.grid, func(p int) (*Figure, error) {
			s := size
			s.Parallel = p
			f, _, err := s.Run()
			return f, err
		}},
		{"figure 7-8", loss.grid, func(p int) (*Figure, error) {
			l := loss
			l.Parallel = p
			f, _, err := l.Run()
			return f, err
		}},
		{"ablation", abl.lossSweep().grid, func(p int) (*Figure, error) {
			a := abl
			a.Parallel = p
			f, _, err := a.Run()
			return f, err
		}},
		{"chaos", chaos.grid, func(p int) (*Figure, error) {
			c := chaos
			c.Parallel = p
			f, _, _, _, err := c.Run()
			return f, err
		}},
		{"churn", churn.grid, func(p int) (*Figure, error) {
			c := churn
			c.Parallel = p
			f, _, _, _, err := c.Run()
			return f, err
		}},
		{"adversarial", adv.grid, func(p int) (*Figure, error) {
			a := adv
			a.Parallel = p
			f, _, _, _, err := a.Run()
			return f, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceRows(t, tc.grid())
			for _, parallel := range []int{1, 4} {
				fig, err := tc.run(parallel)
				if err != nil {
					t.Fatalf("parallel %d: %v", parallel, err)
				}
				for r, row := range fig.Rows {
					for _, p := range fig.Protocols {
						got, ref := fmt.Sprintf("%+v", row.Points[p]), fmt.Sprintf("%+v", want[r].Points[p])
						if got != ref {
							t.Fatalf("parallel %d, %s %s: shared network gives\n%s\nRun gives\n%s",
								parallel, row.Label, p, got, ref)
						}
					}
				}
			}
		})
	}
}

// TestCellOnNetworkBuiltAtOtherLoss: a cell run on a network that carries
// another row's loss gives Run's result for that cell, so nothing reads the
// loss through the tree's or the router's topology, and the cell leaves the
// shared topology's loss as it found it.
func TestCellOnNetworkBuiltAtOtherLoss(t *testing.T) {
	for _, proto := range []string{"SRM", "RMA", "RP", "RP-AWARE", "RP-SUBGROUP", "COOP"} {
		spec := RunSpec{Routers: 60, Loss: 0.2, Protocol: proto, Packets: 20, Interval: 50, TopoSeed: 3, SimSeed: 4}
		const other = 0.02
		net, err := buildNetwork(spec.netKey())
		if err != nil {
			t.Fatal(err)
		}
		net.topo.SetUniformLoss(other)
		got, err := runCell(spec, func(netKey) (*network, error) { return net, nil })
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		want, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if ResultDigest(got) != ResultDigest(want) {
			t.Fatalf("%s at p=%v on a network at p=%v: digest %s, Run gives %s",
				proto, spec.Loss, other, ResultDigest(got), ResultDigest(want))
		}
		for i, p := range net.topo.Loss {
			if p != other {
				t.Fatalf("%s: the cell wrote the shared topology's loss (link %d reads %v)", proto, i, p)
			}
		}
	}
}

// TestSharedNetworkKeepsFastPath: a cell on a shared network plans with the
// tree and router of the shared build, so the batch planner takes the
// tree-aggregated fast path exactly when a fresh build at the cell's loss
// would. A tree-only network, given its own loss copy the way runCell does,
// is the case where the fast path is on.
func TestSharedNetworkKeepsFastPath(t *testing.T) {
	treeNet := func(loss float64) (*network, error) {
		cfg := topology.DefaultTreeConfig(200)
		cfg.LossProb = loss
		topo, err := topology.GenerateTree(cfg, rng.New(5))
		if err != nil {
			return nil, err
		}
		tree, err := mtree.Build(topo)
		if err != nil {
			return nil, err
		}
		return &network{topo: topo, tree: tree, router: route.Build(topo)}, nil
	}
	graphNet := func(loss float64) (*network, error) {
		net, err := buildNetwork(netKey{routers: 80, topoSeed: 5})
		if err == nil {
			net.topo.SetUniformLoss(loss)
		}
		return net, err
	}
	for _, tc := range []struct {
		name  string
		build func(loss float64) (*network, error)
		fast  bool
	}{
		{"tree-only", treeNet, true},
		{"chorded", graphNet, false},
	} {
		shared, err := tc.build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := tc.build(0.15)
		if err != nil {
			t.Fatal(err)
		}
		topo := *shared.topo
		topo.Loss = make([]float64, len(shared.topo.Loss))
		topo.SetUniformLoss(0.15)
		eng, err := NewEngine("SRC")
		if err != nil {
			t.Fatal(err)
		}
		s, err := protocol.NewSessionPrebuilt(&topo, shared.tree, eng, protocol.DefaultConfig(), 1, shared.router)
		if err != nil {
			t.Fatal(err)
		}
		cell := core.NewPlanner(s.Tree, s.Routes).UsesFastPath()
		want := core.NewPlanner(fresh.tree, fresh.router).UsesFastPath()
		if cell != want || want != tc.fast {
			t.Fatalf("%s: the cell's planner uses the fast path: %v; a fresh build's: %v; want %v",
				tc.name, cell, want, tc.fast)
		}
	}
}

// TestChurnComposesMutation: a Mutation rides on a Churn schedule, as it
// does on a Chaos one, and Chaos with Churn is a bad spec.
func TestChurnComposesMutation(t *testing.T) {
	spec := RunSpec{Routers: 40, Loss: 0.05, Protocol: "RP", Packets: 15, Interval: 50,
		TopoSeed: 1, SimSeed: 2, FaultSeed: 3, Churn: &fault.ChurnParams{Rate: 0.5, Span: 50}}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mutation = &fault.MutationConfig{
		Request: fault.MutationParams{DupProb: 0.5, ReorderProb: 0.5, MaxDelay: 20},
		Repair:  fault.MutationParams{DupProb: 0.5, ReorderProb: 0.5, MaxDelay: 20},
	}
	mutated, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ResultDigest(plain) == ResultDigest(mutated) {
		t.Fatalf("the mutation left the churn run unchanged (digest %s, %d events)",
			ResultDigest(plain), plain.Events)
	}
	spec.Chaos = &fault.ChaosParams{CrashRate: 0.2, Span: 50}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "experiment: bad run spec: ") {
		t.Fatalf("Chaos with Churn: err = %v, want a bad run spec", err)
	}
}

// TestSweepBadLossNamesItsRow: a row with a bad loss fails its own cells
// only, named the same at any worker count, whichever cell of the shared
// network runs first: the network is built without loss, so no row's loss
// can fail another row's cells.
func TestSweepBadLossNamesItsRow(t *testing.T) {
	for _, workers := range []int{1, 4} {
		l := LossSweep{Routers: 40, LossPcts: []float64{5, 150}, Protocols: []string{"RP", "SRM"},
			Packets: 5, Interval: 50, BaseSeed: 1, Parallel: workers}
		_, _, err := l.Run()
		const want = "p=150% RP rep 0: topology: loss probability 1.5 out of [0,1]"
		if err == nil || err.Error() != want {
			t.Fatalf("parallel=%d: err = %v, want %q", workers, err, want)
		}
	}
}
