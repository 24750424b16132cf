package core

import (
	"reflect"
	"slices"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// TestDomainAggregatorsMatchElectorate pins the aggregator election rule:
// each domain's aggregator is exactly what an Electorate answers after every
// client outside the domain withdraws — the same (DelayFromRoot, NodeID)
// Algorithm-1 ranking, restricted to domain membership.
func TestDomainAggregatorsMatchElectorate(t *testing.T) {
	for _, n := range []int{24, 100, 513} {
		net, err := topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(uint64(400+n)))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := mtree.Build(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int{4, 16, 64} {
			part := mtree.PartitionDomains(tree, target)
			agg := DomainAggregators(tree, part)
			if len(agg) != part.K {
				t.Fatalf("n=%d target=%d: %d aggregators for %d domains", n, target, len(agg), part.K)
			}
			for d := 0; d < part.K; d++ {
				e := NewElectorate(tree)
				members := 0
				for _, c := range tree.Clients {
					if int(part.ShardOf[c]) != d {
						e.Leave(c)
					} else {
						members++
					}
				}
				want := e.Best()
				if members == 0 {
					want = graph.None
				}
				if agg[d] != want {
					t.Fatalf("n=%d target=%d domain %d: aggregator %d, electorate says %d",
						n, target, d, agg[d], want)
				}
				// The aggregator must be a member of its own domain.
				if agg[d] != graph.None && int(part.ShardOf[agg[d]]) != d {
					t.Fatalf("n=%d target=%d: aggregator %d not in domain %d", n, target, agg[d], d)
				}
			}
		}
	}
}

// TestDomainAggregatorsLiteTree checks the election runs identically on a
// BuildLite tree — the million-client path never builds the full LCA index.
func TestDomainAggregatorsLiteTree(t *testing.T) {
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(200), rng.New(88))
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
	pf := mtree.PartitionDomains(full, 16)
	pl := mtree.PartitionDomains(lite, 16)
	af, al := DomainAggregators(full, pf), DomainAggregators(lite, pl)
	if len(af) != len(al) {
		t.Fatalf("domain counts diverge: %d vs %d", len(af), len(al))
	}
	for d := range af {
		if af[d] != al[d] {
			t.Fatalf("domain %d: full-tree aggregator %d, lite-tree %d", d, af[d], al[d])
		}
	}
}

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
