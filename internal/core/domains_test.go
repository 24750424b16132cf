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

// TestPlanAllDenseMatchesPlanAll pins the LCA-free planning path: a lite
// tree (BuildLite, no O(1) LCA index, so every candidate RTT comes through
// RTTVia off its meet router) must plan, through PlanAllDense, exactly what
// the full tree's PlanAll gives each client, field for field.
// PlanAllDenseInto must then update the same backing objects in place.
func TestPlanAllDenseMatchesPlanAll(t *testing.T) {
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(120), rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	full, err := mtree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	lite, err := mtree.BuildLite(net)
	if err != nil {
		t.Fatal(err)
	}
	want := NewPlanner(full, route.NewTreeTables(full)).PlanAll()
	p := NewPlanner(lite, route.NewTreeTables(lite))
	got := p.PlanAllDense()
	if len(got) != len(lite.Clients) || len(want) != len(lite.Clients) {
		t.Fatalf("%d dense and %d mapped strategies for %d clients", len(got), len(want), len(lite.Clients))
	}
	for i, u := range lite.Clients {
		if got[i] == nil || !reflect.DeepEqual(got[i], want[u]) {
			t.Fatalf("client %d: lite dense %v, full %v", u, got[i], want[u])
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
