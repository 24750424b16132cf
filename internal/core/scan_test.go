package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// meetClasses is the independent oracle for the depth-keyed class scan:
// u's class winners by the direct reading of §4. Every other client (only
// the active ones when active is non-nil) is binned in a map keyed by its
// meet router LCA(u, v), and each class keeps its cheapest member —
// expected attempt cost at the widest prefix, ties by lower peer ID. The
// rule, the RTT query and the ordering are written out here rather than
// called, so the oracle shares no code with the scan it checks. The result
// is in descending DS.
func meetClasses(p *Planner, u graph.NodeID, active []bool) []Candidate {
	t := p.Tree
	pol := p.timeout()
	cost := func(c Candidate) float64 {
		pl := CondLossProbQ(c.DS, t.Depth[u], c.Priv, 1-p.LossProb)
		return (1-pl)*c.RTT + pl*c.Timeout
	}
	best := make(map[graph.NodeID]Candidate)
	for _, v := range t.Clients {
		if v == u || active != nil && !active[v] {
			continue
		}
		meet := t.LCA(u, v)
		rtt := p.Routes.RTT(u, v)
		c := Candidate{
			Peer:    v,
			Meet:    meet,
			DS:      t.Depth[meet],
			RTT:     rtt,
			Timeout: pol.Timeout(rtt),
			Priv:    t.Depth[v] - t.Depth[meet],
		}
		cur, ok := best[meet]
		if !ok || cost(c) < cost(cur) || cost(c) == cost(cur) && c.Peer < cur.Peer {
			best[meet] = c
		}
	}
	out := make([]Candidate, 0, len(best))
	for _, c := range best {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Candidate) int { return cmp.Compare(b.DS, a.DS) })
	return out
}

// TestScanMatchesMeetClasses pins the depth-keyed scan to the meet-keyed
// oracle for every client, under full membership and random subsets, for
// every planner configuration on chorded, generated-tree and builder-tree
// networks. One scratch serves every call, so the class table's per-client
// reset is exercised too. Builder trees have interior clients, so the
// meet == u class must occur.
func TestScanMatchesMeetClasses(t *testing.T) {
	type network struct {
		name string
		tree *mtree.Tree
		rt   route.Router
	}
	chorded := topology.MustGenerate(topology.DefaultConfig(60), rng.New(3))
	nets := []network{{"chorded", mtree.MustBuild(chorded), route.Build(chorded)}}
	gen := mtree.MustBuild(treeNet(t, 80, 4))
	nets = append(nets, network{"tree", gen, route.NewTreeTables(gen)})
	for i := 0; i < 4; i++ {
		b := mtree.MustBuild(builderTree(int64(i), 40))
		nets = append(nets, network{"builder", b, route.NewTreeTables(b)})
	}
	rnd := rand.New(rand.NewSource(17))
	selfClasses := 0
	for _, n := range nets {
		for _, v := range plannerVariants {
			p := NewPlanner(n.tree, n.rt)
			configure(p, v)
			var sc planScratch
			sc.bind(p)
			check := func(u graph.NodeID, active []bool) {
				p.scan(u, active, &sc)
				got := slices.Clone(sc.cands)
				slices.SortFunc(got, func(a, b Candidate) int { return cmp.Compare(b.DS, a.DS) })
				want := meetClasses(p, u, active)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s client %d:\n scan   %v\n oracle %v", n.name, v, u, got, want)
				}
				for _, c := range got {
					if c.Meet == u {
						selfClasses++
					}
				}
			}
			for _, u := range n.tree.Clients {
				check(u, nil)
			}
			active := make([]bool, len(n.tree.Depth))
			for trial := 0; trial < 3; trial++ {
				for _, c := range n.tree.Clients {
					active[c] = rnd.Intn(2) == 0
				}
				for _, u := range n.tree.Clients {
					if active[u] {
						check(u, active)
					}
				}
			}
		}
	}
	if selfClasses == 0 {
		t.Fatal("no network produced a meet == u class")
	}
}

// TestStrategyForConcurrent pins the per-client concurrency contract: four
// goroutines planning every client through one shared, fresh Planner must
// each get exactly the serial results. Under -race it also catches any
// write the per-client path makes to the Planner.
func TestStrategyForConcurrent(t *testing.T) {
	chorded := topology.MustGenerate(topology.DefaultConfig(80), rng.New(5))
	chordedTree := mtree.MustBuild(chorded)
	tree := mtree.MustBuild(treeNet(t, 150, 5))
	for _, tc := range []struct {
		name string
		mk   func() *Planner
	}{
		{"chorded", func() *Planner { return NewPlanner(chordedTree, route.Build(chorded)) }},
		{"tree", func() *Planner { return NewPlanner(tree, route.NewTreeTables(tree)) }},
	} {
		serial := tc.mk()
		clients := serial.Tree.Clients
		want := make([]*Strategy, len(clients))
		for i, u := range clients {
			want[i] = serial.StrategyFor(u)
		}
		shared := tc.mk()
		const workers = 4
		got := make([][]*Strategy, workers)
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]*Strategy, len(clients))
			wg.Add(1)
			go func(out []*Strategy) {
				defer wg.Done()
				for i, u := range clients {
					out[i] = shared.StrategyFor(u)
				}
			}(got[w])
		}
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				t.Fatalf("%s: goroutine %d's strategies differ from the serial ones", tc.name, w)
			}
		}
	}
}
