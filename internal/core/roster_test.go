package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

func rosterPlanner(t *testing.T, routers int, seed uint64) *Planner {
	t.Helper()
	net := topology.MustGenerate(topology.DefaultConfig(routers), rng.New(seed))
	tr, err := mtree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlanner(tr, route.Build(net))
}

// sameStrategies asserts two dense strategy slices (Tree.Clients order, nil
// at inactive positions) are equal field for field.
func sameStrategies(t *testing.T, got, want []*Strategy) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("strategy count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("position %d: incremental %v != full %v", i, got[i], want[i])
		}
	}
}

func TestRosterInitialMatchesPlanner(t *testing.T) {
	p := rosterPlanner(t, 60, 1)
	r := NewRoster(p)
	sameStrategies(t, r.StrategiesDense(nil), p.PlanAllDense())
	if r.Recomputes() != len(p.Tree.Clients) {
		t.Fatalf("initial recomputes %d != k=%d", r.Recomputes(), len(p.Tree.Clients))
	}
}

func TestRosterChurnMatchesFullRecompute(t *testing.T) {
	p := rosterPlanner(t, 80, 2)
	r := NewRoster(p)
	active := map[graph.NodeID]bool{}
	for _, c := range p.Tree.Clients {
		active[c] = true
	}
	rnd := rng.New(3)
	clients := append([]graph.NodeID(nil), p.Tree.Clients...)
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })

	for step := 0; step < 40; step++ {
		v := clients[rnd.Intn(len(clients))]
		if active[v] {
			if len(activeList(active)) <= 2 {
				continue // keep at least two members
			}
			if _, err := r.Leave(v); err != nil {
				t.Fatal(err)
			}
			delete(active, v)
		} else {
			if _, err := r.Join(v); err != nil {
				t.Fatal(err)
			}
			active[v] = true
		}
		sameStrategies(t, r.StrategiesDense(nil), NewRosterActive(p, activeList(active)).StrategiesDense(nil))
	}
}

func activeList(m map[graph.NodeID]bool) []graph.NodeID {
	var out []graph.NodeID
	for c := range m {
		out = append(out, c)
	}
	return out
}

func TestRosterIncrementalIsCheaper(t *testing.T) {
	p := rosterPlanner(t, 120, 4)
	r := NewRoster(p)
	k := len(p.Tree.Clients)
	base := r.Recomputes()
	// One leave must not replan everyone (typical winner fan-in is far
	// below k); aggregate across a few leaves to dodge outliers.
	var total int
	rnd := rng.New(5)
	clients := append([]graph.NodeID(nil), p.Tree.Clients...)
	for i := 0; i < 5; i++ {
		v := clients[rnd.Intn(len(clients))]
		if !r.Active(v) {
			continue
		}
		affected, err := r.Leave(v)
		if err != nil {
			t.Fatal(err)
		}
		total += len(affected)
	}
	if r.Recomputes()-base != total {
		t.Fatalf("recompute accounting wrong: %d vs %d", r.Recomputes()-base, total)
	}
	if total >= 5*k {
		t.Fatalf("incremental churn replanned everyone: %d for k=%d", total, k)
	}
}

func TestRosterErrors(t *testing.T) {
	p := rosterPlanner(t, 30, 6)
	r := NewRoster(p)
	c := p.Tree.Clients[0]
	if _, err := r.Join(c); err == nil {
		t.Fatal("double join accepted")
	}
	if _, err := r.Leave(c); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Leave(c); err == nil {
		t.Fatal("double leave accepted")
	}
	if r.Strategy(c) != nil || r.Active(c) {
		t.Fatal("left member still present")
	}
	if _, err := r.Join(p.Tree.Root); err == nil {
		t.Fatal("joining the source accepted")
	}
	if _, err := r.Join(c); err != nil {
		t.Fatal("rejoin refused")
	}
}

// BenchmarkRosterChurn measures one full churn cycle — a member dies
// (incremental replan of its dependents) and rejoins (replan of itself plus
// any client it now beats) — the operation the resilient RP engine performs
// on every declared death and recovery. The chorded cell runs the scan-mode
// roster (Dijkstra routes with shortcuts); the tree cells run the fast mode,
// where the affected set comes off the tree aggregate.
func BenchmarkRosterChurn(b *testing.B) {
	b.Run("chorded/routers=200", func(b *testing.B) {
		net := topology.MustGenerate(topology.DefaultConfig(200), rng.New(11))
		benchRosterChurn(b, NewPlanner(mtree.MustBuild(net), route.Build(net)))
	})
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			tree := mtree.MustBuild(treeNet(b, n, 11))
			benchRosterChurn(b, NewPlanner(tree, route.NewTreeTables(tree)))
		})
	}
}

func benchRosterChurn(b *testing.B, p *Planner) {
	r := NewRoster(p)
	clients := append([]graph.NodeID(nil), p.Tree.Clients...)
	slices.Sort(clients)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := clients[i%len(clients)]
		if _, err := r.Leave(v); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Join(v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRosterStrategiesSnapshotSafe is the aliasing regression test:
// StrategiesDense(nil) must return a slice later churn cannot mutate, and
// the *Strategy values captured in it must stay byte-stable while the
// roster replans (replan builds new Strategy structs, never updates in
// place).
func TestRosterStrategiesSnapshotSafe(t *testing.T) {
	p := rosterPlanner(t, 60, 9)
	r := NewRoster(p)
	snap := r.StrategiesDense(nil)
	frozen := freezeStrategies(snap)
	clients := append([]graph.NodeID(nil), p.Tree.Clients...)
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	if _, err := r.Leave(clients[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Leave(clients[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join(clients[0]); err != nil {
		t.Fatal(err)
	}
	checkFrozen(t, snap, frozen)
	// The live view, by contrast, must reflect churn.
	if r.Strategy(clients[1]) != nil {
		t.Fatal("roster still holds a departed member's strategy")
	}
}

// freezeStrategies deep-copies a dense strategy snapshot, Peers included.
func freezeStrategies(snap []*Strategy) []Strategy {
	frozen := make([]Strategy, len(snap))
	for i, s := range snap {
		frozen[i] = *s
		frozen[i].Peers = slices.Clone(s.Peers)
	}
	return frozen
}

// checkFrozen asserts a held snapshot still equals its deep copy.
func checkFrozen(t *testing.T, snap []*Strategy, frozen []Strategy) {
	t.Helper()
	for i := range frozen {
		if !reflect.DeepEqual(*snap[i], frozen[i]) {
			t.Fatalf("position %d: snapshot strategy mutated under churn", i)
		}
	}
}

// TestNewRosterActiveMatchesChurn pins the full-replan ground truth: a
// roster built directly over a subset must equal a full roster driven to
// the same membership by Leave calls.
func TestNewRosterActiveMatchesChurn(t *testing.T) {
	p := rosterPlanner(t, 80, 10)
	r := NewRoster(p)
	clients := append([]graph.NodeID(nil), p.Tree.Clients...)
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	var members []graph.NodeID
	for i, c := range clients {
		if i%3 == 0 {
			if _, err := r.Leave(c); err != nil {
				t.Fatal(err)
			}
		} else {
			members = append(members, c)
		}
	}
	fresh := NewRosterActive(p, members)
	sameStrategies(t, fresh.StrategiesDense(nil), r.StrategiesDense(nil))
	if fresh.ActiveCount() != r.ActiveCount() {
		t.Fatalf("active count %d != %d", fresh.ActiveCount(), r.ActiveCount())
	}
	if fresh.Epoch() != 0 {
		t.Fatalf("fresh roster epoch %d != 0", fresh.Epoch())
	}
}

// TestRosterEpochAndDense covers the epoch clock and the dense accessors'
// canonical client-position layout.
func TestRosterEpochAndDense(t *testing.T) {
	p := rosterPlanner(t, 50, 11)
	r := NewRoster(p)
	if r.Epoch() != 0 {
		t.Fatalf("initial epoch %d != 0", r.Epoch())
	}
	c := p.Tree.Clients[0]
	if _, err := r.Leave(c); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 {
		t.Fatalf("epoch after leave %d != 1", r.Epoch())
	}
	if _, err := r.Leave(c); err == nil {
		t.Fatal("double leave accepted")
	}
	if r.Epoch() != 1 {
		t.Fatalf("rejected op advanced the epoch: %d", r.Epoch())
	}
	if _, err := r.Join(c); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch after join %d != 2", r.Epoch())
	}

	if _, err := r.Leave(c); err != nil {
		t.Fatal(err)
	}
	dense := r.StrategiesDense(nil)
	occ := r.OccupancyDense(nil)
	if len(dense) != len(p.Tree.Clients) || len(occ) != len(dense) {
		t.Fatalf("dense lengths %d/%d != %d", len(dense), len(occ), len(p.Tree.Clients))
	}
	for i, u := range p.Tree.Clients {
		if occ[i] != r.Active(u) {
			t.Fatalf("occupancy[%d] disagrees with Active(%d)", i, u)
		}
		if !occ[i] {
			if dense[i] != nil {
				t.Fatalf("inactive position %d holds a strategy", i)
			}
			continue
		}
		if dense[i] != r.Strategy(u) {
			t.Fatalf("dense[%d] is not client %d's strategy", i, u)
		}
	}
	// Reuse path: a large-enough slice is written in place, not reallocated.
	if again := r.StrategiesDense(dense); &again[0] != &dense[0] {
		t.Fatal("StrategiesDense reallocated a sufficient slice")
	}
}

func TestRosterLoneMemberGoesToSource(t *testing.T) {
	p := rosterPlanner(t, 30, 7)
	r := NewRoster(p)
	clients := append([]graph.NodeID(nil), p.Tree.Clients...)
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, c := range clients[1:] {
		if _, err := r.Leave(c); err != nil {
			t.Fatal(err)
		}
	}
	last := clients[0]
	st := r.Strategy(last)
	if st == nil || len(st.Peers) != 0 {
		t.Fatalf("lone member should plan direct-to-source: %+v", st)
	}
	if math.Abs(st.ExpectedDelay-st.SourceRTT) > 1e-9 {
		t.Fatal("lone member expected delay should equal source RTT")
	}
}
