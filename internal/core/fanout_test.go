package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
)

// fanOutSmall is just above one chunk, the largest pass that plans on one
// worker: two chunks, the second one partial. fanOutLarge is five chunks,
// the last one partial, so that -cpu 4 runs four workers.
const (
	fanOutSmall = fanOutChunk + fanOutChunk/32 + 1
	fanOutLarge = 4*fanOutChunk + fanOutChunk/2 + 1
)

// withProcs runs f at GOMAXPROCS n and restores the previous setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// fanOutProcs is the GOMAXPROCS the fan-out side of a test runs at: the
// test's own setting (go test -cpu), but at least two workers.
func fanOutProcs() int { return max(runtime.GOMAXPROCS(0), 2) }

// checkFanOut plans every client of a fresh planner from mk on one worker
// and on fanOutProcs workers. It fails unless the fanned-out first plan
// and the fanned-out replan into the same slice both equal the serial plan
// and the replan reuses every Strategy.
func checkFanOut(t *testing.T, mk func() *Planner, fast bool) {
	t.Helper()
	var want []*Strategy
	withProcs(1, func() { want = mk().PlanAllDense() })
	p := mk()
	var got []*Strategy
	withProcs(fanOutProcs(), func() {
		if w := p.PlanWorkers(); w < 2 {
			t.Fatalf("%d clients plan on %d worker(s) at GOMAXPROCS %d",
				len(p.Tree.Clients), w, runtime.GOMAXPROCS(0))
		}
		got = p.PlanAllDense()
	})
	if p.UsesFastPath() != fast {
		t.Fatalf("UsesFastPath() = %v, want %v", !fast, fast)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fanned-out plan differs from the serial one")
	}
	first := slices.Clone(got)
	withProcs(fanOutProcs(), func() { p.PlanAllDenseInto(got) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fanned-out replan differs from the serial plan")
	}
	for i := range got {
		if got[i] != first[i] {
			t.Fatalf("replan reallocated the strategy at position %d", i)
		}
	}
}

// TestPlanAllDenseFanOutMatchesSerial pins the batch fan-out's contract:
// a pass split over GOMAXPROCS workers returns exactly what one worker
// returns, for the first plan and for the replan into the same slice. It
// covers the fast path on full and compact (BuildLite) trees, the
// DisableFastPath scan fallback and the loss-aware planner, and rosters
// over member subsets, each of which then applies one Leave, so the class
// winners the workers recorded are checked too. The scans are O(N²), so
// they plan the small tree.
func TestPlanAllDenseFanOutMatchesSerial(t *testing.T) {
	small := mtree.MustBuild(treeNet(t, fanOutSmall, 21))
	largeNet := treeNet(t, fanOutLarge, 22)
	large := mtree.MustBuild(largeNet)
	lite, err := mtree.BuildLite(largeNet)
	if err != nil {
		t.Fatal(err)
	}
	planner := func(tree *mtree.Tree, setup func(*Planner)) func() *Planner {
		return func() *Planner {
			p := NewPlanner(tree, route.NewTreeTables(tree))
			setup(p)
			return p
		}
	}
	fastPath := func(*Planner) {}
	scan := func(p *Planner) { p.DisableFastPath = true }
	aware := func(p *Planner) { configure(p, "aware") }

	for _, tc := range []struct {
		name string
		mk   func() *Planner
		fast bool
	}{
		{"small-build", planner(small, fastPath), true},
		{"large-build", planner(large, fastPath), true},
		{"large-buildlite", planner(lite, fastPath), true},
		{"scan", planner(small, scan), false},
		{"aware", planner(small, aware), false},
	} {
		t.Run(tc.name, func(t *testing.T) { checkFanOut(t, tc.mk, tc.fast) })
	}

	subset := func(tree *mtree.Tree, seed uint64, oneIn int) []graph.NodeID {
		rnd := rng.New(seed)
		var out []graph.NodeID
		for _, c := range tree.Clients {
			if rnd.Intn(oneIn) == 0 {
				out = append(out, c)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		mk      func() *Planner
		members []graph.NodeID
		fast    bool
	}{
		{"fast-roster", planner(large, fastPath), subset(large, 3, 2), true},
		{"scan-roster", planner(small, scan), subset(small, 4, 4), false},
		{"aware-roster", planner(small, aware), subset(small, 5, 4), false},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRosterFanOut(t, tc.mk, tc.members, tc.fast) })
	}
}

// checkRosterFanOut builds a roster over members with mk's planner on one
// worker and on fanOutProcs workers, and fails unless both plan the same
// and still agree after one Leave.
func checkRosterFanOut(t *testing.T, mk func() *Planner, members []graph.NodeID, fast bool) {
	t.Helper()
	var serial, fanned *Roster
	withProcs(1, func() { serial = NewRosterActive(mk(), members) })
	withProcs(fanOutProcs(), func() { fanned = NewRosterActive(mk(), members) })
	if fanned.p.UsesFastPath() != fast {
		t.Fatalf("UsesFastPath() = %v, want %v", !fast, fast)
	}
	if !reflect.DeepEqual(fanned.StrategiesDense(nil), serial.StrategiesDense(nil)) {
		t.Fatal("fanned-out roster plans differ from the serial ones")
	}
	if fanned.Recomputes() != len(members) {
		t.Fatalf("%d recomputes for %d members", fanned.Recomputes(), len(members))
	}
	v := members[len(members)/2]
	wantAffected, err := serial.Leave(v)
	if err != nil {
		t.Fatal(err)
	}
	gotAffected, err := fanned.Leave(v)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotAffected, wantAffected) ||
		!reflect.DeepEqual(fanned.StrategiesDense(nil), serial.StrategiesDense(nil)) {
		t.Fatalf("rosters diverged after Leave(%d)", v)
	}
}

// TestPlanAllDenseFanOutAllocs bounds the fan-out's own cost: a
// steady-state replan that fans out allocates a few objects per worker
// (a closure per worker, the chunk counter, the wait group) and none per
// client.
func TestPlanAllDenseFanOutAllocs(t *testing.T) {
	p := treePlanner(t, treeNet(t, fanOutLarge, 13), "tree")
	withProcs(fanOutProcs(), func() {
		out := p.PlanAllDense() // warm: slice, strategies, scratches, aggregate
		workers := p.PlanWorkers()
		allocs := testing.AllocsPerRun(10, func() { p.PlanAllDenseInto(out) })
		if allocs > float64(4*workers) {
			t.Fatalf("steady-state PlanAllDenseInto on %d workers allocates %.1f/op, want <= %d",
				workers, allocs, 4*workers)
		}
	})
}
