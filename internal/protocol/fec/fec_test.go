package fec

import (
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

func TestSingleLossDecodedFromParity(t *testing.T) {
	// One client loses exactly one packet of a block; a single parity
	// symbol must decode it with zero recovery traffic.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 8, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Lose only packet 0: heal before packet 1 (t=10).
	s.Eng.Schedule(5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Local decode: no request or repair traffic at all.
	if res.Hops.Recovery() != 0 {
		t.Fatalf("FEC decode generated recovery traffic: %+v", res.Hops)
	}
	// Parity multicast happened: data hops exceed 8 packets × 3 links.
	if res.Hops.Data <= 8*3 {
		t.Fatalf("no parity traffic visible in data hops: %d", res.Hops.Data)
	}
	// Latency: loss detected at ~3 ms (would-arrive), parity sent at
	// t=70+ε arrives ~73; recovery ≈ 70 ms after detection.
	if res.AvgLatency() < 65 || res.AvgLatency() > 75 {
		t.Fatalf("decode latency %v outside expected ~70 ms", res.AvgLatency())
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling fallback timers")
	}
}

func TestLossBeyondParityFallsBackToSource(t *testing.T) {
	// Lose 3 packets of a K=8,R=2 block: decoding alone is impossible, the
	// fallback must fetch from the source.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 8, Interval: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Packets 0 (t=0), 1 (t=10) and 2 (t=20) lost; heal at t=25.
	s.Eng.Schedule(25, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 3 || res.Stats.Recoveries != 3 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// With 3 losses and 2 parities: decode covers the missing packets only
	// after one is fetched; at least one unicast round trip happened.
	if res.Hops.Recovery() == 0 {
		t.Fatal("no fallback traffic despite undecodable block")
	}
}

func TestParityLossHandled(t *testing.T) {
	// The parity itself can be lost; the fallback must still recover.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 8, Interval: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Packet 0 (t=0) lost. Heal so packets 1–7 survive, break again in the
	// 1 ms gap before the parity send (t=70.001) so both parities are
	// lost, then heal for the fallback.
	s.Eng.Schedule(5, func() { topo.Loss[link] = 0 })
	s.Eng.Schedule(70.0005, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(70.5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Hops.Recovery() == 0 {
		t.Fatal("expected source fallback after parity loss")
	}
}

func TestRandomLossFullRecovery(t *testing.T) {
	for _, p := range []float64{0.05, 0.2} {
		topo, err := topology.Standard(50, p, 41)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 64, Interval: 20}, 43)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !res.Complete || res.Stats.Losses == 0 {
			t.Fatalf("p=%v: degenerate run %+v", p, res.Stats)
		}
		if res.Stats.Unrecovered != 0 {
			t.Fatalf("p=%v: %d unrecovered", p, res.Stats.Unrecovered)
		}
		if e.PendingRecoveries() != 0 {
			t.Fatalf("p=%v: dangling timers", p)
		}
		// At 5% loss with R/K=2/8, most blocks decode locally: recovery
		// traffic per recovery must be far below a source round trip for
		// every loss.
		if p == 0.05 {
			perRec := float64(res.Hops.Recovery()) / float64(res.Stats.Recoveries)
			if perRec > 10 {
				t.Fatalf("p=5%%: recovery traffic %v hops/recovery — decode not working?", perRec)
			}
		}
	}
}

func TestTailBlockShorterThanK(t *testing.T) {
	// 10 packets with K=8: tail block has 2 data packets; its parity must
	// still decode single losses.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	e := New()
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 10, Interval: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Lose only packet 9 (the last, in the tail block, sent at t=90):
	// lossy from t=89, healed in the 1 ms gap before the parity send.
	s.Eng.Schedule(89, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(90.0005, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Hops.Recovery() != 0 {
		t.Fatalf("tail-block decode used the network: %+v", res.Hops)
	}
}

// TestPermanentCrashMidBlockDoesNotWedge is the FaultAware regression: a
// client that crashes mid-block with fallbacks in flight used to re-arm
// its retry timer forever (the unicast suppressed, the timer not), keeping
// the event loop alive to the cap. The crash must park the fallbacks and
// classify the dead client's gaps as UnrecoveredCrashed.
func TestPermanentCrashMidBlockDoesNotWedge(t *testing.T) {
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{}
	// Crash mid-stream, inside a block, after losses have been detected.
	sched.CrashHost(300, topo.Clients[0])
	e := New()
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
	s, err := protocol.NewSession(topo, e, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("permanent crash wedged the run: %d events", res.Events)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("dead client's gaps misclassified: %+v", res.Stats)
	}
	if res.Stats.UnrecoveredCrashed == 0 {
		t.Fatalf("crash at t=300 mid-stream lost nothing? %+v", res.Stats)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
}

// TestCrashAndResumeFinishesStream: a transient crash parks the client's
// fallbacks and resumes them on recovery; the stream must still complete
// for every client.
func TestCrashAndResumeFinishesStream(t *testing.T) {
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{}
	sched.CrashWindow(topo.Clients[0], 100, 500)
	sched.CrashWindow(topo.Clients[1], 200, 700)
	e := New()
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
	s, err := protocol.NewSession(topo, e, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("run hit the event cap: %d events", res.Events)
	}
	if res.Stats.Unrecovered != 0 || res.Stats.UnrecoveredCrashed != 0 {
		t.Fatalf("transient crashes left gaps: %+v", res.Stats)
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling fallback timers after resume")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "FEC(8,2)" {
		t.Fatal("name format")
	}
	var _ graph.NodeID // keep import balanced if assertions change
}
