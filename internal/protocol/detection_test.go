package protocol

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

// TestGapDetectionExposesLossOnNextArrival: under DetectGap a loss is
// detected exactly when the next data packet arrives.
func TestGapDetectionExposesLossOnNextArrival(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1

	var detected []float64
	e := &hookEngine{}
	e.onDetect = func(s *Session, cl graph.NodeID, seq int) {
		detected = append(detected, s.Eng.Now())
	}
	s, err := NewSession(topo, e, Config{
		Packets: 3, Interval: 10, Detection: DetectGap,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Packet 0 is lost (link lossy), then heal before packet 1.
	s.Eng.Schedule(5, func() { topo.Loss[link] = 0 })
	s.Run()
	if len(detected) != 1 {
		t.Fatalf("detections %d, want 1 (only packet 0 lost)", len(detected))
	}
	// Packet 1 sent at t=10, arrives at 10+3=13: detection of packet 0
	// happens at that arrival.
	if math.Abs(detected[0]-13) > 1e-6 {
		t.Fatalf("gap detection at %v, want 13", detected[0])
	}
}

func TestGapDetectionTailSweep(t *testing.T) {
	// The LAST packet is lost: only the tail sweep can expose it.
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]

	var detected []float64
	e := &hookEngine{}
	e.onDetect = func(s *Session, cl graph.NodeID, seq int) {
		detected = append(detected, s.Eng.Now())
	}
	s, err := NewSession(topo, e, Config{
		Packets: 3, Interval: 10, Detection: DetectGap,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Lose only the last packet: make the link lossy just before t=20.
	s.Eng.Schedule(19.5, func() { topo.Loss[link] = 1 })
	res := s.Run()
	if len(detected) != 1 {
		t.Fatalf("detections %d, want 1", len(detected))
	}
	// Sweep at lastSend(20) + wouldArrive(3) + tail lag(2·Interval = 20) = 43.
	if math.Abs(detected[0]-43) > 1e-6 {
		t.Fatalf("tail detection at %v, want 43", detected[0])
	}
	if res.Stats.Losses != 1 {
		t.Fatalf("losses %d", res.Stats.Losses)
	}
}

func TestGapDetectionLatencyExceedsIdeal(t *testing.T) {
	// Gap detection can only see a loss later than the idealised mode, so
	// end-to-end recovery latency (measured from the *loss event's
	// idealised arrival*) is larger — here we simply check that both
	// modes recover everything and that the echo loop works under gaps.
	topo, _ := topology.Standard(40, 0.15, 3)
	runMode := func(mode DetectionMode) *Result {
		topo2, _ := topology.Standard(40, 0.15, 3)
		s, err := NewSession(topo2, &echoEngine{}, Config{
			Packets: 60, Interval: 25, Detection: mode,
		}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	_ = topo
	ideal := runMode(DetectIdeal)
	gap := runMode(DetectGap)
	if gap.Stats.Losses != ideal.Stats.Losses {
		t.Fatalf("loss counts differ across detection modes: %d vs %d",
			gap.Stats.Losses, ideal.Stats.Losses)
	}
	if gap.Stats.Recoveries == 0 {
		t.Fatal("no recoveries under gap detection")
	}
}

func TestTracerReceivesLifecycleEvents(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	s, err := NewSession(topo, &echoEngine{}, Config{Packets: 2, Interval: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.Counter
	s.Trace = &tr
	s.Eng.Schedule(0.5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if tr.Count(trace.SendData) != 2 {
		t.Fatalf("send-data events %d, want 2", tr.Count(trace.SendData))
	}
	if tr.Count(trace.Detect) != 1 || tr.Count(trace.Recover) != 1 {
		t.Fatalf("detect/recover %d/%d, want 1/1",
			tr.Count(trace.Detect), tr.Count(trace.Recover))
	}
	if tr.Count(trace.SendRequest) != 1 || tr.Count(trace.SendRepair) != 1 {
		t.Fatalf("request/repair %d/%d", tr.Count(trace.SendRequest), tr.Count(trace.SendRepair))
	}
	if tr.Count(trace.Drop) == 0 {
		t.Fatal("no drop events despite a lossy link")
	}
	// recv-data: packet 0 lost, packet 1 received = 1.
	if tr.Count(trace.RecvData) != 1 {
		t.Fatalf("recv-data %d, want 1", tr.Count(trace.RecvData))
	}
}

func TestLatencyHistogramPopulated(t *testing.T) {
	topo, _ := topology.Standard(40, 0.1, 5)
	s, err := NewSession(topo, &echoEngine{}, Config{Packets: 50, Interval: 25}, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.LatencyHist == nil || res.LatencyHist.Count() != res.Stats.Recoveries {
		t.Fatalf("histogram count %d != recoveries %d",
			res.LatencyHist.Count(), res.Stats.Recoveries)
	}
	p50 := res.LatencyQuantile(0.5)
	p95 := res.LatencyQuantile(0.95)
	if p50 <= 0 || p95 < p50 {
		t.Fatalf("quantiles out of order: p50=%v p95=%v", p50, p95)
	}
	// Median must bracket the mean loosely.
	if p95 < res.Stats.Latency.Mean()*0.5 {
		t.Fatalf("p95 %v implausibly below mean %v", p95, res.Stats.Latency.Mean())
	}
	empty := &Result{}
	if empty.LatencyQuantile(0.5) != 0 {
		t.Fatal("nil histogram quantile should be 0")
	}
}

func TestJitteredSessionStillRecovers(t *testing.T) {
	// 40% queueing jitter stresses timeout margins (planned RTTs assume
	// no jitter); retries must still converge to full recovery.
	topo, _ := topology.Standard(50, 0.1, 6)
	s, err := NewSession(topo, &echoEngine{}, Config{
		Packets: 50, Interval: 30, Jitter: 0.4,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Losses == 0 || res.Stats.Recoveries == 0 {
		t.Fatalf("jittered run degenerate: %+v", res.Stats)
	}
	// Echo recoveries must take at least the unjittered RTT.
	if res.Stats.Latency.Min() <= 0 {
		t.Fatal("non-positive latency under jitter")
	}
}

func TestSessionAccessorsAndRecoverLocal(t *testing.T) {
	topo, _ := topology.Chain(2, 1, []int{1})
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1

	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.Interval = 10
	e := &hookEngine{}
	var localOK, dupNo bool
	e.onDetect = func(s *Session, cl graph.NodeID, seq int) {
		if cl != c {
			return
		}
		// Exercise the accessors from inside a run.
		if s.Config().Packets != 2 || len(s.Clients()) != 2 || !s.IsClient(cl) {
			t.Error("session accessors wrong")
		}
		localOK = s.RecoverLocal(cl, seq)
		dupNo = !s.RecoverLocal(cl, seq) // second call must refuse
	}
	s, err := NewSession(topo, e, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if !localOK || !dupNo {
		t.Fatalf("RecoverLocal sequence wrong: %v %v", localOK, dupNo)
	}
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// RecoverLocal before detection counts as pre-detection.
	if !math.IsNaN(0) { // placeholder to keep math import used if edits change
		_ = math.NaN()
	}
}

func TestRecoverLocalPreDetection(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := &hookEngine{}
	s, err := NewSession(topo, e, Config{Packets: 1, Interval: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Recover locally BEFORE the detector fires (detection at ~3 ms).
	s.Eng.Schedule(1, func() {
		if !s.RecoverLocal(c, 0) {
			t.Error("pre-detection RecoverLocal refused")
		}
	})
	res := s.Run()
	if res.Stats.PreDetection != 1 || res.Stats.Losses != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Non-clients are refused.
	if s.RecoverLocal(topo.Source, 0) {
		t.Fatal("RecoverLocal accepted the source")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Packets != 100 || cfg.Interval != 50 || cfg.Detection != DetectIdeal {
		t.Fatalf("unexpected defaults %+v", cfg)
	}
}

func TestSessionMessagesExposeTailLossEarly(t *testing.T) {
	// The LAST packet is lost; under DetectSession the next heartbeat
	// exposes it long before the end-of-run tail sweep would.
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]

	var detected []float64
	e := &hookEngine{}
	e.onDetect = func(s *Session, cl graph.NodeID, seq int) {
		detected = append(detected, s.Eng.Now())
	}
	s, err := NewSession(topo, e, Config{
		Packets: 8, Interval: 10, Detection: DetectSession,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Lose only packet 7 (sent at t=70); heal before the t=80 heartbeat.
	s.Eng.Schedule(69.5, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(70.5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if len(detected) != 1 {
		t.Fatalf("detections %d, want 1", len(detected))
	}
	// Heartbeats come every 4·Interval = 40: the one at t=80 (highest=7)
	// arrives at 83, before the tail sweep at 70+3+2·Interval = 93.
	if math.Abs(detected[0]-83) > 1e-6 {
		t.Fatalf("session detection at %v, want 83", detected[0])
	}
	if res.Stats.Losses != 1 {
		t.Fatalf("losses %d", res.Stats.Losses)
	}
}

func TestSessionDetectionFullRecovery(t *testing.T) {
	topo, _ := topology.Standard(50, 0.1, 8)
	s, err := NewSession(topo, &echoEngine{}, Config{
		Packets: 50, Interval: 25, Detection: DetectSession,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete || res.Stats.Losses == 0 {
		t.Fatalf("degenerate session-detection run: %+v", res.Stats)
	}
	if res.Stats.Recoveries+res.Stats.Unrecovered != res.Stats.Losses {
		t.Fatal("accounting identity broken under session detection")
	}
}

func TestSessionAndGapModesAgreeOnTotals(t *testing.T) {
	// Same topology and seeds: the set of (client, packet) gaps is a
	// property of the data plane, so every detection mode must converge
	// on the same loss totals once tail sweeps run.
	losses := map[DetectionMode]int64{}
	for _, mode := range []DetectionMode{DetectIdeal, DetectGap, DetectSession} {
		topo, _ := topology.Standard(40, 0.1, 12)
		s, err := NewSession(topo, &echoEngine{}, Config{
			Packets: 40, Interval: 25, Detection: mode,
		}, 13)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		// Heartbeats can trigger slightly different engine behaviour, but
		// (losses + pre-detection heals) must cover the same gap set.
		losses[mode] = res.Stats.Losses + res.Stats.PreDetection
	}
	// Ideal and gap modes add no data-plane traffic, so their loss draws
	// are identical. Session mode's heartbeats consume extra draws from
	// the loss stream, shifting later packets' fates slightly — demand
	// agreement within 2%.
	if losses[DetectGap] != losses[DetectIdeal] {
		t.Fatalf("gap totals differ: %v", losses)
	}
	lo, hi := losses[DetectIdeal], losses[DetectSession]
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi-lo) > 0.02*float64(hi) {
		t.Fatalf("session-mode totals diverge beyond draw-shift noise: %v", losses)
	}
}
