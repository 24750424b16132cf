package core

import (
	"reflect"
	"slices"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// TestPlanAllDenseMatchesPlanAll pins the LCA-free planning path: through
// PlanAllDense, where every candidate RTT comes through RTTVia off its meet
// router, the planner must give each client exactly what PlanAll gives it,
// field for field. PlanAllDenseInto must then update the same backing
// objects in place.
func TestPlanAllDenseMatchesPlanAll(t *testing.T) {
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(120), rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mtree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	want := NewPlanner(tree, route.NewTreeTables(tree)).PlanAll()
	p := NewPlanner(tree, route.NewTreeTables(tree))
	got := p.PlanAllDense()
	if len(got) != len(tree.Clients) || len(want) != len(tree.Clients) {
		t.Fatalf("%d dense and %d mapped strategies for %d clients", len(got), len(want), len(tree.Clients))
	}
	for i, u := range tree.Clients {
		if got[i] == nil || !reflect.DeepEqual(got[i], want[u]) {
			t.Fatalf("client %d: dense %v, mapped %v", u, got[i], want[u])
		}
	}
	prev := slices.Clone(got)
	again := p.PlanAllDenseInto(got)
	for i := range again {
		if again[i] != prev[i] {
			t.Fatalf("PlanAllDenseInto reallocated entry %d", i)
		}
	}
}
