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

// winnerRule is the scan oracle for the clients a change to v affects: the
// active clients u != v that have v as one of their class winners among
// the active members, found through the meet-keyed oracle meetClasses,
// which shares no code with the roster. Evaluated before a Leave (v's last
// moment as a member) and after a Join, it is the rule the roster applies:
// a leave invalidates u when v is a class winner of u, and a join when v
// wins u's class at LCA(u, v).
func winnerRule(r *Roster, v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, u := range r.p.Tree.Clients {
		if u == v || !r.active[u] {
			continue
		}
		for _, w := range meetClasses(r.p, u, r.active) {
			if w.Peer == v {
				out = append(out, u)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// builderTree builds a random tree-only network by hand, attaching each new
// router or client below a random earlier node, so clients often have
// children of their own and the descendant class (meet == u) occurs.
// Integer delays keep the tree metric exact.
func builderTree(seed int64, nodes int) *topology.Network {
	rnd := rand.New(rand.NewSource(seed))
	b := topology.NewBuilder()
	src := b.Source()
	first := b.Router()
	b.TreeLink(src, first, float64(1+rnd.Intn(4)))
	attach := []graph.NodeID{first}
	for i := 0; i < nodes; i++ {
		var x graph.NodeID
		if i < 2 || rnd.Intn(2) == 0 {
			x = b.Client()
		} else {
			x = b.Router()
		}
		b.TreeLink(attach[rnd.Intn(len(attach))], x, float64(1+rnd.Intn(4)))
		attach = append(attach, x)
	}
	return b.MustBuild()
}

// churnAgainstOracle drives r through steps random Leave/Join ops and
// checks each op's affected list and recompute count against winnerRule,
// then the final strategies against a roster rebuilt over the same members.
func churnAgainstOracle(t *testing.T, r *Roster, rnd *rand.Rand, steps int, label string) {
	t.Helper()
	clients := r.p.Tree.Clients
	for step := 0; step < steps; step++ {
		v := clients[rnd.Intn(len(clients))]
		before := r.Recomputes()
		var got, want []graph.NodeID
		var err error
		extra := 0
		if r.Active(v) {
			if r.ActiveCount() <= 1 {
				continue
			}
			want = winnerRule(r, v)
			got, err = r.Leave(v)
		} else {
			got, err = r.Join(v)
			want = winnerRule(r, v)
			extra = 1 // Join also replans v itself
		}
		if err != nil {
			t.Fatalf("%s step %d: %v", label, step, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s step %d (v=%d): affected %v, winner rule %v", label, step, v, got, want)
		}
		if d := r.Recomputes() - before; d != len(got)+extra {
			t.Fatalf("%s step %d: %d recomputes for %d affected", label, step, d, len(got))
		}
	}
	var members []graph.NodeID
	for _, c := range clients {
		if r.Active(c) {
			members = append(members, c)
		}
	}
	if !reflect.DeepEqual(r.StrategiesDense(nil), NewRosterActive(r.p, members).StrategiesDense(nil)) {
		t.Fatalf("%s: churned roster != full replan", label)
	}
}

// TestRosterAffectedMatchesScan pins the affected set to the winner rule.
// Fast mode reads it off the tree aggregate: the four fast variants on
// generated trees under both routers and on builder trees with interior
// clients. Scan mode looks each client's class up by meet depth: every
// planner variant on a chorded network, and the loss-aware planner on
// builder trees.
func TestRosterAffectedMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	for _, v := range plannerVariants {
		p := rosterPlanner(t, 60, 23)
		configure(p, v)
		r := NewRoster(p)
		if r.agg != nil || r.winners == nil {
			t.Fatalf("chorded/%s: roster not in scan mode", v)
		}
		churnAgainstOracle(t, r, rnd, 40, "chorded/"+v)
	}
	for i := 0; i < 3; i++ {
		tree := mtree.MustBuild(builderTree(int64(i), 50))
		p := NewPlanner(tree, route.NewTreeTables(tree))
		configure(p, "aware")
		churnAgainstOracle(t, NewRoster(p), rnd, 40, "builder/aware")
	}

	builders := 12
	if testing.Short() {
		builders = 4
	}
	for _, v := range fastVariants {
		rnd := rand.New(rand.NewSource(31))
		for _, router := range []string{"tree", "dijkstra"} {
			p := treePlanner(t, treeNet(t, 120, 17), router)
			configure(p, v)
			r := NewRoster(p)
			if r.agg == nil || r.winners != nil {
				t.Fatalf("%s/%s: roster not in fast mode", router, v)
			}
			churnAgainstOracle(t, r, rnd, 60, router+"/"+v)
		}
		interior := 0
		for i := 0; i < builders; i++ {
			net := builderTree(int64(i), 30+rnd.Intn(60))
			tree := mtree.MustBuild(net)
			for _, c := range tree.Clients {
				if len(tree.Children[c]) > 0 {
					interior++
				}
			}
			p := NewPlanner(tree, route.NewTreeTables(tree))
			configure(p, v)
			churnAgainstOracle(t, NewRoster(p), rnd, 40, "builder/"+v)
		}
		if interior == 0 {
			t.Fatalf("%s: builder trees produced no interior clients", v)
		}
	}
}

// FuzzRosterChurn searches for topologies and churn sequences where the
// aggregate's affected set departs from the winner rule.
func FuzzRosterChurn(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(0))
	f.Add(uint64(9), uint16(120), uint8(1))
	f.Add(uint64(77), uint16(15), uint8(6))
	f.Add(uint64(5), uint16(60), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, variant uint8) {
		n := 2 + int(size)%150
		v := fastVariants[int(variant)%len(fastVariants)]
		var net *topology.Network
		if variant&4 != 0 {
			net = builderTree(int64(seed), n)
		} else {
			var err error
			if net, err = topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(seed)); err != nil {
				t.Skip()
			}
		}
		tree := mtree.MustBuild(net)
		p := NewPlanner(tree, route.NewTreeTables(tree))
		configure(p, v)
		churnAgainstOracle(t, NewRoster(p), rand.New(rand.NewSource(int64(seed))), 30, v)
	})
}

// TestRosterChurnAllocs pins the lean fast-mode replan: a Leave+Join pair
// allocates at most a fresh Strategy and its Peers array per replanned
// client, plus the two returned slices — no per-replan map.
func TestRosterChurnAllocs(t *testing.T) {
	p := treePlanner(t, treeNet(t, 400, 21), "tree")
	r := NewRoster(p)
	for _, v := range p.Tree.Clients[:40] {
		left, err := r.Leave(v)
		if err != nil {
			t.Fatal(err)
		}
		joined, err := r.Join(v)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * (len(left) + len(joined) + 1)
		for _, l := range [][]graph.NodeID{left, joined} {
			if len(l) > 0 {
				bound++
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			r.Leave(v)
			r.Join(v)
		})
		if allocs > float64(bound) {
			t.Fatalf("client %d: Leave+Join allocates %.0f, bound %d (%d+%d affected)",
				v, allocs, bound, len(left), len(joined))
		}
	}
}

// TestRosterFastStrategiesSnapshotSafe is TestRosterStrategiesSnapshotSafe
// for fast-mode rosters, which replan through a roster-owned scratch: no
// Strategy the roster hands out may alias that scratch.
func TestRosterFastStrategiesSnapshotSafe(t *testing.T) {
	for _, v := range fastVariants {
		p := treePlanner(t, treeNet(t, 120, 9), "tree")
		configure(p, v)
		r := NewRoster(p)
		snap := r.StrategiesDense(nil)
		frozen := freezeStrategies(snap)
		clients := p.Tree.Clients
		for _, c := range clients[:12] {
			if _, err := r.Leave(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients[6:12] {
			if _, err := r.Join(c); err != nil {
				t.Fatal(err)
			}
		}
		// Scribble over the scratch: any Peers array sharing it would change.
		sc := r.sc.cands[:cap(r.sc.cands)]
		for i := range sc {
			sc[i] = Candidate{Peer: graph.None, Meet: graph.None, DS: -1}
		}
		checkFrozen(t, snap, frozen)
		if !reflect.DeepEqual(r.StrategiesDense(nil), NewRosterActive(p, clients[6:]).StrategiesDense(nil)) {
			t.Fatalf("%s: live strategies changed when the scratch was overwritten", v)
		}
	}
}

// TestRosterJoinOutOfRange is the regression test for Join on node IDs
// outside the network: an error, not an index panic, in both modes.
func TestRosterJoinOutOfRange(t *testing.T) {
	for _, p := range []*Planner{rosterPlanner(t, 30, 6), treePlanner(t, treeNet(t, 40, 6), "tree")} {
		r := NewRoster(p)
		for _, v := range []graph.NodeID{graph.NodeID(1 << 20), -3} {
			if _, err := r.Join(v); err == nil {
				t.Fatalf("Join(%d) accepted", v)
			}
			if _, err := r.Leave(v); err == nil {
				t.Fatalf("Leave(%d) accepted", v)
			}
			if r.Strategy(v) != nil {
				t.Fatalf("Strategy(%d) is not nil", v)
			}
		}
		if r.Epoch() != 0 || r.ActiveCount() != len(p.Tree.Clients) {
			t.Fatalf("rejected ops changed the roster: epoch %d, %d active", r.Epoch(), r.ActiveCount())
		}
	}
}
