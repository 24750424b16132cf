package protocol_test

import (
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/coop"
	"rmcast/internal/protocol/rma"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srcrec"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/topology"
)

// chaosSchedule builds one combined fault plan over a standard topology:
// a transient client crash, a permanent client crash, link outage windows
// on two access links, and Gilbert–Elliott bursts on two more. Every
// engine below faces this exact schedule.
func chaosSchedule(t *testing.T, topo *topology.Network) *fault.Schedule {
	t.Helper()
	if len(topo.Clients) < 4 {
		t.Fatalf("topology too small: %d clients", len(topo.Clients))
	}
	tree := mtree.MustBuild(topo)
	s := &fault.Schedule{}
	// Client 0 crashes mid-run and recovers; client 1 crashes for good.
	s.CrashWindow(topo.Clients[0], 300, 900)
	s.CrashHost(700, topo.Clients[1])
	// Two access links go dark for a stretch of the run.
	s.LinkDownWindow(tree.ParentLink[topo.Clients[2]], 250, 600)
	s.LinkDownWindow(tree.ParentLink[topo.Clients[3]], 500, 800)
	// Burst loss on the recovered clients' access links, harsh regime.
	ge, ok := fault.BurstFromSeverity(0.8, 0.05)
	if !ok {
		t.Fatal("BurstFromSeverity(0.8) disabled")
	}
	s.SetBurst(tree.ParentLink[topo.Clients[0]], ge)
	s.SetBurst(tree.ParentLink[topo.Clients[2]], ge)
	return s
}

// TestLivenessUnderCombinedFaults is the PR's acceptance invariant: under
// combined crashes, link outage windows and burst loss — with recovery
// traffic itself lossy — every engine must still deliver every packet to
// every client that is up at the end of the run. Only the permanently
// crashed client may hold gaps, and those must be classified as
// UnrecoveredCrashed, never Unrecovered.
func TestLivenessUnderCombinedFaults(t *testing.T) {
	engines := []struct {
		name string
		mk   func() protocol.Engine
	}{
		{"RP", func() protocol.Engine { return rpproto.New(rpproto.Options{}) }},
		{"RP-RESILIENT", func() protocol.Engine { return rpproto.New(rpproto.Options{Resilient: true}) }},
		{"SRM", func() protocol.Engine { return srm.New(srm.Options{}) }},
		{"RMA", func() protocol.Engine { return rma.New() }},
		{"SRC", func() protocol.Engine { return srcrec.New() }},
		{"COOP", func() protocol.Engine { return coop.New() }},
	}
	for _, tc := range engines {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			topo, err := topology.Standard(60, 0.05, 11)
			if err != nil {
				t.Fatal(err)
			}
			cfg := protocol.Config{
				Packets: 60, Interval: 25,
				LossyRecovery: true,
				Fault:         chaosSchedule(t, topo),
			}
			s, err := protocol.NewSession(topo, tc.mk(), cfg, 13)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if !res.Complete {
				t.Fatalf("run hit the event cap: %d events", res.Events)
			}
			if res.Stats.Unrecovered != 0 {
				t.Fatalf("liveness violated: %d unrecovered losses at live clients\n%+v",
					res.Stats.Unrecovered, res.Stats)
			}
			// The permanent crash at t=700 happens mid-transmission, so the
			// dead client must be missing packets — and they must land in
			// the crashed bucket.
			if res.Stats.UnrecoveredCrashed == 0 {
				t.Fatalf("permanently crashed client missing nothing? %+v", res.Stats)
			}
			if dr := res.DeliveryRatio(); dr <= 0 || dr >= 1 {
				t.Fatalf("delivery ratio %v, want in (0, 1)", dr)
			}
		})
	}
}

// TestFaultRunDeterminism asserts a faulty run is reproducible: same seeds
// and schedule, identical stats, hops and event counts.
func TestFaultRunDeterminism(t *testing.T) {
	run := func() *protocol.Result {
		topo, err := topology.Standard(60, 0.05, 11)
		if err != nil {
			t.Fatal(err)
		}
		cfg := protocol.Config{
			Packets: 60, Interval: 25,
			LossyRecovery: true,
			Fault:         chaosSchedule(t, topo),
		}
		s, err := protocol.NewSession(topo, rpproto.New(rpproto.Options{Resilient: true}), cfg, 13)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.Hops != b.Hops || a.Events != b.Events {
		t.Fatalf("same seed diverged under faults:\n%+v\n%+v", a, b)
	}
}

// TestZeroFaultSessionUnchanged asserts that passing an empty (or nil)
// schedule leaves the run byte-for-byte on the legacy code path: identical
// stats to a session constructed with no Fault field at all.
func TestZeroFaultSessionUnchanged(t *testing.T) {
	run := func(sched *fault.Schedule) *protocol.Result {
		topo, err := topology.Standard(50, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := protocol.Config{Packets: 40, Interval: 30, Fault: sched}
		s, err := protocol.NewSession(topo, srm.New(srm.Options{}), cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	legacy := run(nil)
	empty := run(&fault.Schedule{})
	if legacy.Stats != empty.Stats || legacy.Hops != empty.Hops || legacy.Events != empty.Events {
		t.Fatalf("empty schedule perturbed the run:\n%+v\n%+v", legacy, empty)
	}
}

// TestSourceCrashRejected: the liveness invariant is conditioned on the
// source staying up, so a schedule that crashes it must be refused.
func TestSourceCrashRejected(t *testing.T) {
	topo, err := topology.Standard(40, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched := (&fault.Schedule{}).CrashHost(100, topo.Source)
	cfg := protocol.Config{Packets: 10, Interval: 20, Fault: sched}
	if _, err := protocol.NewSession(topo, srm.New(srm.Options{}), cfg, 1); err == nil {
		t.Fatal("source-crashing schedule accepted")
	}
}
