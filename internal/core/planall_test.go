package core

import (
	"fmt"
	"reflect"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// plannerVariants are the configurations every planning path must cover:
// the paper default, the restricted graph, a fixed timeout policy, and the
// loss-aware model (see configure).
var plannerVariants = []string{"default", "restricted", "fixed", "aware"}

// plannersUnderTest returns a planner per plannerVariants entry over one
// chorded topology.
func plannersUnderTest(t *testing.T, size int, seed uint64) []*Planner {
	t.Helper()
	net := topology.MustGenerate(topology.DefaultConfig(size), rng.New(seed))
	tree := mtree.MustBuild(net)
	rt := route.Build(net)
	var ps []*Planner
	for _, v := range plannerVariants {
		p := NewPlanner(tree, rt)
		configure(p, v)
		ps = append(ps, p)
	}
	return ps
}

// TestPlanAllMatchesStrategyFor asserts the batch pass is field-for-field
// identical to the per-client path on every configuration.
func TestPlanAllMatchesStrategyFor(t *testing.T) {
	for _, seed := range []uint64{1, 2003} {
		for pi, p := range plannersUnderTest(t, 150, seed) {
			batch := p.PlanAllDense()
			if len(batch) != len(p.Tree.Clients) {
				t.Fatalf("planner %d: PlanAllDense returned %d strategies, want %d",
					pi, len(batch), len(p.Tree.Clients))
			}
			for i, u := range p.Tree.Clients {
				want := p.StrategyFor(u)
				if !reflect.DeepEqual(batch[i], want) {
					t.Fatalf("planner %d seed %d client %d: PlanAllDense = %v, StrategyFor = %v",
						pi, seed, u, batch[i], want)
				}
			}
		}
	}
}

// TestPlanAllRepeatable asserts two batch passes over the same planner give
// identical results (the scratch reuse must not leak state across calls),
// and that the map adapter keys each dense entry by its client.
func TestPlanAllRepeatable(t *testing.T) {
	for _, p := range plannersUnderTest(t, 120, 7) {
		a, b := p.PlanAllDense(), p.PlanAllDense()
		if !reflect.DeepEqual(a, b) {
			t.Fatal("PlanAllDense not repeatable")
		}
		m := p.PlanAll()
		if len(m) != len(a) {
			t.Fatalf("PlanAll has %d entries for %d clients", len(m), len(a))
		}
		for i, u := range p.Tree.Clients {
			if !reflect.DeepEqual(m[u], a[i]) {
				t.Fatalf("PlanAll[%d] != PlanAllDense entry %d", u, i)
			}
		}
	}
}

// BenchmarkPlanAll measures batch planning. The chords cell is the historic
// benchmark (default chorded topology, which falls back to the peer scan);
// the scan/tree pair at n=5000 clients is the acceptance comparison for the
// tree-aggregated path: identical topology and router, only the path
// differs.
func BenchmarkPlanAll(b *testing.B) {
	b.Run("chords/n=300", func(b *testing.B) {
		net := topology.MustGenerate(topology.DefaultConfig(300), rng.New(1))
		tree := mtree.MustBuild(net)
		p := NewPlanner(tree, route.Build(net))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.PlanAllDense()
		}
	})
	for _, mode := range []string{"scan", "tree"} {
		b.Run(mode+"/n=5000", func(b *testing.B) {
			net := topology.MustGenerateTree(topology.DefaultTreeConfig(5000), rng.New(1))
			tree := mtree.MustBuild(net)
			p := NewPlanner(tree, route.NewTreeTables(tree))
			p.DisableFastPath = mode == "scan"
			out := p.PlanAllDense() // warm scratch and result slice
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAllDenseInto(out)
			}
		})
	}
}

// BenchmarkPlanAllLarge is the scaling tier's micro counterpart: steady-
// state full replans on the fast path at the sweep's client counts.
func BenchmarkPlanAllLarge(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := topology.MustGenerateTree(topology.DefaultTreeConfig(n), rng.New(1))
			tree := mtree.MustBuild(net)
			p := NewPlanner(tree, route.NewTreeTables(tree))
			if !p.UsesFastPath() {
				b.Fatal("expected fast path")
			}
			out := p.PlanAllDense()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAllDenseInto(out)
			}
		})
	}
}
