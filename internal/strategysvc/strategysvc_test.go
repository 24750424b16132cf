package strategysvc

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// svcPlanner builds a planner over a tree-only topology (fast-path
// aggregate) or a chorded one (scan fallback), so service tests cover both
// roster modes.
func svcPlanner(t testing.TB, clients int, seed uint64, chorded bool) *core.Planner {
	t.Helper()
	var net *topology.Network
	if chorded {
		net = topology.MustGenerate(topology.DefaultConfig(clients), rng.New(seed))
	} else {
		net = topology.MustGenerateTree(topology.DefaultTreeConfig(clients), rng.New(seed))
	}
	tree := mtree.MustBuild(net)
	if chorded {
		return core.NewPlanner(tree, route.Build(net))
	}
	return core.NewPlanner(tree, route.NewTreeTables(tree))
}

// snapContent freezes everything reader-visible in a snapshot for
// byte-stability comparisons.
type snapContent struct {
	version, epoch uint64
	activeCount    int
	active         []bool
	strategies     []core.Strategy // deep copies, Peers included
}

func freeze(s *Snapshot) snapContent {
	c := snapContent{
		version:     s.Version,
		epoch:       s.Epoch,
		activeCount: s.ActiveCount(),
		active:      make([]bool, len(s.Strategies())),
		strategies:  make([]core.Strategy, len(s.Strategies())),
	}
	for i, st := range s.Strategies() {
		c.active[i] = s.Active(s.Clients()[i])
		if st != nil {
			cp := *st
			cp.Peers = append([]core.Candidate(nil), st.Peers...)
			c.strategies[i] = cp
		}
	}
	return c
}

func TestInitialSnapshotMatchesPlanAllDense(t *testing.T) {
	p := svcPlanner(t, 120, 1, false)
	want := core.NewPlanner(p.Tree, p.Routes).PlanAllDense()
	svc := New(p, Config{})
	defer svc.Close()
	snap := svc.Snapshot()
	if snap.Version != 1 || snap.Epoch != 0 {
		t.Fatalf("initial snapshot version/epoch = %d/%d, want 1/0", snap.Version, snap.Epoch)
	}
	if snap.ActiveCount() != len(p.Tree.Clients) {
		t.Fatalf("initial active count %d != %d", snap.ActiveCount(), len(p.Tree.Clients))
	}
	if !reflect.DeepEqual(snap.Strategies(), want) {
		t.Fatal("initial snapshot diverges from PlanAllDense")
	}
	for i, u := range p.Tree.Clients {
		if svc.Get(u) != snap.Strategies()[i] {
			t.Fatalf("Get(%d) is not the dense entry %d", u, i)
		}
	}
	// Non-clients and out-of-range nodes resolve to nil, not panics.
	if svc.Get(p.Tree.Root) != nil || svc.Get(-1) != nil || svc.Get(graph.NodeID(1<<30)) != nil {
		t.Fatal("non-client Get should be nil")
	}
}

func TestChurnBatchSemantics(t *testing.T) {
	p := svcPlanner(t, 90, 2, false)
	svc := New(p, Config{})
	defer svc.Close()
	clients := p.Tree.Clients

	svc.Leave(clients[0])
	svc.Leave(clients[1])
	svc.Join(clients[0])
	svc.Leave(clients[0]) // join then leave in (potentially) one batch
	svc.Flush()

	snap := svc.Snapshot()
	if snap.Epoch != 4 {
		t.Fatalf("epoch %d != 4 applied ops", snap.Epoch)
	}
	if svc.Get(clients[0]) != nil || svc.Get(clients[1]) != nil {
		t.Fatal("departed members still resolvable")
	}
	if snap.Active(clients[0]) || snap.Active(clients[1]) {
		t.Fatal("departed members still active")
	}
	if snap.ActiveCount() != len(clients)-2 {
		t.Fatalf("active count %d != %d", snap.ActiveCount(), len(clients)-2)
	}

	// Invalid ops are rejected, publish nothing, and leave the version
	// untouched.
	v := svc.Snapshot().Version
	svc.Leave(clients[0]) // already out
	svc.Join(clients[2])  // already in
	svc.Join(p.Tree.Root) // not a client
	svc.Flush()
	st := svc.Stats()
	if st.Rejected != 3 {
		t.Fatalf("rejected %d != 3", st.Rejected)
	}
	if svc.Snapshot().Version != v {
		t.Fatal("rejected-only batch advanced the version")
	}
	if st.Applied != 4 || st.Published != st.Batches {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

// TestOutOfRangeJoinRejected is the regression test for joins of node IDs
// outside the network: they land in Stats.Rejected instead of killing the
// applier, which keeps serving afterwards.
func TestOutOfRangeJoinRejected(t *testing.T) {
	for _, chorded := range []bool{false, true} {
		p := svcPlanner(t, 40, 5, chorded)
		svc := New(p, Config{})
		svc.Join(graph.NodeID(1 << 20))
		svc.Join(-3)
		svc.Flush()
		if st := svc.Stats(); st.Rejected != 2 || st.Applied != 0 {
			t.Fatalf("chorded=%v: stats %+v, want 2 rejected, 0 applied", chorded, st)
		}
		c := p.Tree.Clients[0]
		svc.Leave(c)
		svc.Flush()
		if st := svc.Stats(); st.Applied != 1 || svc.Get(c) != nil {
			t.Fatalf("chorded=%v: service stopped applying after the rejects: %+v", chorded, st)
		}
		svc.Close()
	}
}

// TestSnapshotImmutableAfterPublish pins the headline memory-model claim: a
// held snapshot is byte-stable while the service churns past it.
func TestSnapshotImmutableAfterPublish(t *testing.T) {
	for _, chorded := range []bool{false, true} {
		p := svcPlanner(t, 80, 3, chorded)
		svc := New(p, Config{})
		old := svc.Snapshot()
		want := freeze(old)

		rnd := rand.New(rand.NewSource(7))
		clients := p.Tree.Clients
		out := map[graph.NodeID]bool{}
		for i := 0; i < 50; i++ {
			v := clients[rnd.Intn(len(clients))]
			if out[v] {
				svc.Join(v)
				delete(out, v)
			} else if len(clients)-len(out) > 2 {
				svc.Leave(v)
				out[v] = true
			}
			if i%10 == 0 {
				svc.Flush()
			}
		}
		svc.Flush()
		if svc.Snapshot().Version <= old.Version {
			t.Fatal("churn published nothing")
		}
		if got := freeze(old); !reflect.DeepEqual(got, want) {
			t.Fatalf("chorded=%v: held snapshot mutated under churn", chorded)
		}
		svc.Close()
	}
}

// TestIncrementalMatchesFullReplan drives randomized churn through the
// service and pins the published content after every barrier, whatever the
// batch boundaries were, equal to a full replan: a fresh
// core.NewRosterActive over the same membership, whose construction shares
// no repair logic with the incremental Join/Leave path.
func TestIncrementalMatchesFullReplan(t *testing.T) {
	for _, chorded := range []bool{false, true} {
		svc := New(svcPlanner(t, 70, 4, chorded), Config{})
		truth := svcPlanner(t, 70, 4, chorded)
		clients := svc.Snapshot().Clients()

		rnd := rand.New(rand.NewSource(9))
		out := map[graph.NodeID]bool{}
		var ops uint64
		for step := 0; step < 80; step++ {
			v := clients[rnd.Intn(len(clients))]
			if out[v] {
				svc.Join(v)
				delete(out, v)
				ops++
			} else if len(clients)-len(out) > 2 {
				svc.Leave(v)
				out[v] = true
				ops++
			}
			if step%7 != 0 {
				continue
			}
			svc.Flush()
			var members []graph.NodeID
			for _, c := range clients {
				if !out[c] {
					members = append(members, c)
				}
			}
			full := core.NewRosterActive(truth, members)
			snap := svc.Snapshot()
			if snap.Epoch != ops {
				t.Fatalf("chorded=%v step %d: epoch %d after %d ops", chorded, step, snap.Epoch, ops)
			}
			if !reflect.DeepEqual(snap.Strategies(), full.StrategiesDense(nil)) {
				t.Fatalf("chorded=%v step %d: incremental snapshot != full replan", chorded, step)
			}
			if snap.ActiveCount() != full.ActiveCount() {
				t.Fatalf("chorded=%v step %d: active counts diverged", chorded, step)
			}
		}
		svc.Close()
	}
}

// TestServiceRaceHammer is the CI -race workload: concurrent readers
// hammering Get/Snapshot while the applier batches churn. Checks version
// monotonicity per reader, internal snapshot consistency, and final
// equality against a from-scratch ground truth.
func TestServiceRaceHammer(t *testing.T) {
	p := svcPlanner(t, 100, 5, false)
	svc := New(p, Config{})
	defer svc.Close()
	clients := p.Tree.Clients

	const readers = 4
	var stopReaders atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			first := svc.Snapshot()
			lastVersion, lastEpoch := first.Version, first.Epoch
			for !stopReaders.Load() {
				snap := svc.Snapshot()
				if snap.Version < lastVersion {
					errs <- "snapshot version went backwards"
					return
				}
				if snap.Version == lastVersion && snap.Epoch != lastEpoch {
					errs <- "same version, different epoch"
					return
				}
				if snap.Version > lastVersion && snap.Epoch <= lastEpoch {
					errs <- "version advanced without the epoch"
					return
				}
				lastVersion, lastEpoch = snap.Version, snap.Epoch
				c := clients[r.Intn(len(clients))]
				st := snap.Get(c)
				if snap.Active(c) != (st != nil) {
					errs <- "occupancy and strategy disagree inside one snapshot"
					return
				}
				if st != nil && st.Client != c {
					errs <- "torn strategy: wrong client"
					return
				}
				if svc.Get(c) == nil && svc.Snapshot().Active(c) {
					// Fine: two separate loads may straddle a publish.
					_ = c
				}
			}
		}(uint64(g) + 100)
	}

	// Churn driver: bursts of ops with occasional barriers.
	rnd := rand.New(rand.NewSource(13))
	out := map[graph.NodeID]bool{}
	for burst := 0; burst < 40; burst++ {
		for i := 0; i < 8; i++ {
			v := clients[rnd.Intn(len(clients))]
			if out[v] {
				svc.Join(v)
				delete(out, v)
			} else if len(clients)-len(out) > 2 {
				svc.Leave(v)
				out[v] = true
			}
		}
		if burst%5 == 0 {
			svc.Flush()
		}
	}
	svc.Flush()
	stopReaders.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Final snapshot equals a from-scratch plan over the surviving set.
	var members []graph.NodeID
	for _, c := range clients {
		if !out[c] {
			members = append(members, c)
		}
	}
	truth := core.NewRosterActive(svcPlanner(t, 100, 5, false), members)
	if !reflect.DeepEqual(svc.Snapshot().Strategies(), truth.StrategiesDense(nil)) {
		t.Fatal("final snapshot diverges from from-scratch ground truth")
	}
	st := svc.Stats()
	if st.Applied == 0 || st.Published == 0 || st.Published != st.Batches {
		t.Fatalf("stats inconsistent after hammer: %+v", st)
	}
	if svc.Snapshot().Version != st.Published+1 {
		t.Fatalf("version %d != published %d + 1", svc.Snapshot().Version, st.Published)
	}
}

// TestReadPathAllocationFree pins the zero-allocation contract of the
// lock-free read path.
func TestReadPathAllocationFree(t *testing.T) {
	p := svcPlanner(t, 80, 6, false)
	svc := New(p, Config{})
	defer svc.Close()
	c := p.Tree.Clients[len(p.Tree.Clients)/2]
	if n := testing.AllocsPerRun(200, func() {
		if svc.Get(c) == nil {
			t.Fatal("active client resolved to nil")
		}
	}); n != 0 {
		t.Fatalf("Get allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if svc.Snapshot() == nil {
			t.Fatal("nil snapshot")
		}
	}); n != 0 {
		t.Fatalf("Snapshot allocates %v/op, want 0", n)
	}
}

func TestCloseSemantics(t *testing.T) {
	p := svcPlanner(t, 40, 7, false)
	svc := New(p, Config{})
	c := p.Tree.Clients[0]
	svc.Leave(c)
	svc.Flush()
	snap := svc.Snapshot()
	svc.Close()
	svc.Close() // idempotent
	// Post-close: reads still work against the last snapshot, churn is
	// dropped without blocking, Flush returns.
	svc.Join(c)
	svc.Flush()
	if svc.Snapshot() != snap {
		t.Fatal("snapshot changed after Close")
	}
	if svc.Get(c) != nil {
		t.Fatal("post-close churn applied")
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for i := int64(0); i < 1000; i++ {
		h.Record(i) // 0..999 ns: buckets 0..62
	}
	h.Record(1 << 20) // overflow
	if h.Total() != 1001 {
		t.Fatalf("total %d != 1001", h.Total())
	}
	if p50 := h.Quantile(0.5); p50 < 400 || p50 > 600 {
		t.Fatalf("p50 %v outside [400,600]", p50)
	}
	if h.Quantile(1.0) != float64(1<<20) {
		t.Fatalf("max quantile %v != overflow max", h.Quantile(1.0))
	}
	var a, b Hist
	a.Record(100)
	b.Record(5000)
	a.Merge(&b)
	if a.Total() != 2 {
		t.Fatalf("merged total %d != 2", a.Total())
	}
	if (&Hist{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

// TestStressRejectsBadArgs pins Stress's argument checks: a negative reader
// count, a non-positive duration and an empty client list are errors, not
// a makeslice panic or a division by a zero elapsed time; zero readers is a
// churn-only run.
func TestStressRejectsBadArgs(t *testing.T) {
	p := svcPlanner(t, 40, 1, false)
	svc := New(p, Config{})
	defer svc.Close()
	clients := p.Tree.Clients
	for _, tc := range []struct {
		name    string
		clients []graph.NodeID
		readers int
		d       time.Duration
	}{
		{"negative readers", clients, -1, time.Millisecond},
		{"zero duration", clients, 1, 0},
		{"negative duration", clients, 1, -time.Second},
		{"no clients", nil, 1, time.Millisecond},
	} {
		if _, err := Stress(svc, tc.clients, tc.readers, 100, tc.d); err == nil {
			t.Errorf("%s: Stress accepted the arguments", tc.name)
		}
	}
	res, err := Stress(svc, clients, 0, 1000, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("churn-only run: %v", err)
	}
	if res.Queries != 0 {
		t.Fatalf("churn-only run counted %d queries", res.Queries)
	}
}
