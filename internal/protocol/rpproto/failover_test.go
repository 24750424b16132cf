package rpproto

import (
	"fmt"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// churnTopo generates the realistic mid-size network the failover tests run
// on, together with its deterministic election succession line.
func churnTopo(t *testing.T, seed uint64) (*topology.Network, []graph.NodeID) {
	t.Helper()
	cfg := topology.DefaultConfig(40)
	topo, err := topology.Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return topo, core.ElectionOrder(mtree.MustBuild(topo))
}

// runFailover executes one RP-FAILOVER session (strict oracle — any safety
// violation panics) and returns the result plus the engine for state
// inspection.
func runFailover(t *testing.T, topo *topology.Network, sched *fault.Schedule,
	packets int, seed uint64) (*protocol.Result, *Engine) {
	t.Helper()
	e := New(Options{Failover: true})
	cfg := protocol.Config{Packets: packets, Interval: 10, Fault: sched}
	s, err := protocol.NewSession(topo, e, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatal("run hit the event cap")
	}
	return res, e
}

// TestFailoverEnvelope is the pinned failover demonstration: the initial RP
// is crashed permanently in the middle of the recovery workload, and still
// every live client reaches full delivery, the strict oracle records zero
// violations (one claim per epoch, per-host epoch monotonicity, recovery
// conservation across the handover), at least one failover is counted, and
// the survivors converge on the deterministic successor.
func TestFailoverEnvelope(t *testing.T) {
	topo, order := churnTopo(t, 7)
	rp0 := order[0]
	sched := (&fault.Schedule{}).CrashHost(150, rp0) // mid-run, permanent
	res, e := runFailover(t, topo, sched, 60, 11)

	if len(res.Violations) != 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%d losses unrecovered at live clients", res.Stats.Unrecovered)
	}
	if res.Stats.Failovers < 1 {
		t.Fatalf("RP crashed but Failovers = %d", res.Stats.Failovers)
	}
	if e.initialRP != rp0 {
		t.Fatalf("bootstrap RP %d, election order says %d", e.initialRP, rp0)
	}
	// Every live client's final view names the same successor, and it is
	// not the corpse.
	successor := e.claimant
	if successor == rp0 || successor == graph.None {
		t.Fatalf("claimant %d after crashing %d", successor, rp0)
	}
	for _, c := range topo.Clients {
		if c == rp0 {
			continue
		}
		if got := e.CurrentRP(c); got != successor {
			t.Fatalf("client %d ends on RP %d, want %d", c, got, successor)
		}
	}
}

// TestFailoverDeterministicReplay pins byte-identical re-execution: the
// same (topology, schedule, seed) twice yields identical stats, failover
// counts, and final views — the determinism argument behind sharing fault
// seeds across sweep cells.
func TestFailoverDeterministicReplay(t *testing.T) {
	run := func() (string, string) {
		topo, order := churnTopo(t, 7)
		sched := (&fault.Schedule{}).CrashHost(150, order[0])
		res, e := runFailover(t, topo, sched, 60, 11)
		views := ""
		for _, c := range topo.Clients {
			views += fmt.Sprintf("%d:%d/%d ", c, e.CurrentEpoch(c), e.CurrentRP(c))
		}
		return fmt.Sprintf("%+v", res.Stats), views
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%s\n%s", s1, s2)
	}
	if v1 != v2 {
		t.Fatalf("final views differ across identical runs:\n%s\n%s", v1, v2)
	}
}

// TestSimultaneousSuspicionSingleClaim drives every client into suspicion at
// once (the RP dies under total data loss at high fan-in), so many peers race
// foPromote at the same winner. The strict oracle asserts the race resolves
// to exactly one claim per epoch; the engine must end with everyone on the
// single deterministic winner.
func TestSimultaneousSuspicionSingleClaim(t *testing.T) {
	topo, order := churnTopo(t, 13)
	rp0 := order[0]
	// Crash before traffic: every loss-recovery in the run immediately
	// suspects the bootstrap RP, from many clients in the same timeout
	// window.
	sched := (&fault.Schedule{}).CrashHost(0, rp0)
	res, e := runFailover(t, topo, sched, 30, 17)
	if len(res.Violations) != 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%d unrecovered", res.Stats.Unrecovered)
	}
	if res.Stats.Failovers < 1 {
		t.Fatal("no failover despite a dead bootstrap RP")
	}
	// The deterministic rule: with rp0 withdrawn the winner is the next
	// live name in the election order.
	want := order[1]
	if e.claimant != want {
		t.Fatalf("claimant %d, deterministic successor is %d", e.claimant, want)
	}
}

// TestCrashDuringHandover kills the successor as well — the second wave
// lands while (or right after) the first election seats it — so the group
// must fail over at least twice and still deliver everywhere alive.
func TestCrashDuringHandover(t *testing.T) {
	topo, order := churnTopo(t, 7)
	sched := (&fault.Schedule{}).
		CrashHost(0, order[0]).
		CrashHost(300, order[1]) // the successor, after it has seated
	res, e := runFailover(t, topo, sched, 60, 19)
	if len(res.Violations) != 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%d unrecovered", res.Stats.Unrecovered)
	}
	if res.Stats.Failovers < 2 {
		t.Fatalf("two coordinator crashes but only %d failovers", res.Stats.Failovers)
	}
	if e.claimant == order[0] || e.claimant == order[1] {
		t.Fatalf("final claimant %d is one of the corpses", e.claimant)
	}
}

// TestExRPRejoin exercises the rejoin path end to end: the bootstrap RP
// crashes with a recovery window, comes back after the group has moved to a
// new epoch, probes the registry, adopts the current view, and is
// re-admitted to the electorate as a regular candidate.
func TestExRPRejoin(t *testing.T) {
	topo, order := churnTopo(t, 7)
	rp0 := order[0]
	sched := (&fault.Schedule{}).CrashWindow(rp0, 120, 320)
	res, e := runFailover(t, topo, sched, 60, 23)
	if len(res.Violations) != 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("%d unrecovered", res.Stats.Unrecovered)
	}
	if res.Stats.Failovers < 1 {
		t.Fatal("no failover recorded")
	}
	if e.claimant == rp0 {
		t.Fatal("deposed RP still the claimant after rejoin")
	}
	// Re-admitted: back in the electorate, caught up to the current view.
	if !e.elect.Active(rp0) {
		t.Fatal("recovered ex-RP not re-admitted to the electorate")
	}
	if got := e.CurrentRP(rp0); got != e.claimant {
		t.Fatalf("ex-RP's view is %d, current claimant is %d", got, e.claimant)
	}
	if got, cur := e.CurrentEpoch(rp0), e.maxClaimed; got != cur {
		t.Fatalf("ex-RP's epoch %d, current epoch %d", got, cur)
	}
}

// TestAdoptEpochIdempotent pins rejoin/announce idempotency at the unit
// level: replaying the same announcement (a duplicated control message, or
// a probe answered twice) must not change state, re-count a failover, or
// disturb the electorate.
func TestAdoptEpochIdempotent(t *testing.T) {
	topo, order := churnTopo(t, 7)
	sched := (&fault.Schedule{}).CrashHost(120, order[0])
	res, e := runFailover(t, topo, sched, 40, 29)
	if len(res.Violations) != 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	c := order[2]
	epoch, rp := e.CurrentEpoch(c), e.CurrentRP(c)
	max0 := e.maxClaimed
	for i := 0; i < 3; i++ {
		e.foOnAnnounce(c, foAnnounce{Epoch: epoch, RP: rp})
	}
	if e.CurrentEpoch(c) != epoch || e.CurrentRP(c) != rp {
		t.Fatal("replayed announcement changed the adopted view")
	}
	if e.maxClaimed != max0 || e.claimant != rp {
		t.Fatal("replayed announcement disturbed the claim registry")
	}
}

// TestFailoverFallsBackSerial pins the parallel-engine contract: a failover
// run requesting sharding must run as one shard — the serial run — and say
// why.
func TestFailoverFallsBackSerial(t *testing.T) {
	topo, order := churnTopo(t, 7)
	sched := (&fault.Schedule{}).CrashHost(150, order[0])
	cfg := protocol.Config{Packets: 40, Interval: 10, Fault: sched, SimWorkers: 4}
	s, err := protocol.NewSession(topo, New(Options{Failover: true}), cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Sharded {
		t.Fatal("failover run claimed to have sharded")
	}
	if res.SerialReason == "" {
		t.Fatal("serial fallback left no reason")
	}
	if res.Stats.Unrecovered != 0 || len(res.Violations) != 0 {
		t.Fatalf("fallback run unhealthy: %d unrecovered, %v",
			res.Stats.Unrecovered, res.Violations)
	}
}

// FuzzElection drives the failover machinery through arbitrary crash-window
// placements over the succession line and asserts the envelope invariants
// hold everywhere: the run quiesces, the strict oracle (panicking on any
// safety violation) stays silent, no liveness violation is recorded, and no
// recovery is lost at a live client.
func FuzzElection(f *testing.F) {
	f.Add(uint64(1), 150.0, 80.0, 210.0, 120.0, true)
	f.Add(uint64(2), 0.0, 500.0, 0.0, 500.0, false)
	f.Add(uint64(3), 300.0, 10.0, 305.0, 10.0, true)
	f.Fuzz(func(t *testing.T, seed uint64, at0, down0, at1, down1 float64, second bool) {
		clampT := func(v float64, span float64) float64 {
			if !(v >= 0) || v > span {
				return span / 2
			}
			return v
		}
		const span = 60 * 10
		at0, at1 = clampT(at0, span), clampT(at1, span)
		down0, down1 = clampT(down0, span), clampT(down1, span)
		topo, order := churnTopo(t, 7)
		sched := (&fault.Schedule{}).CrashWindow(order[0], at0, at0+down0)
		if second {
			sched.CrashWindow(order[1], at1, at1+down1)
		}
		cfg := protocol.Config{Packets: 60, Interval: 10, Fault: sched}
		s, err := protocol.NewSession(topo, New(Options{Failover: true}), cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run() // strict oracle: safety violations panic here
		if !res.Complete {
			t.Fatal("run hit the event cap")
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations under crash windows (%g+%g, %g+%g): %v",
				at0, down0, at1, down1, res.Violations)
		}
		if res.Stats.Unrecovered != 0 {
			t.Fatalf("%d losses unrecovered at live clients", res.Stats.Unrecovered)
		}
	})
}
