package protocol

import (
	"math"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/sim"
	"rmcast/internal/topology"
)

func mustTree(t *testing.T, topo *topology.Network) *mtree.Tree {
	t.Helper()
	tr, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// nullEngine detects losses but never recovers anything.
type nullEngine struct {
	detects int
	packets int
}

func (n *nullEngine) Name() string                      { return "NULL" }
func (n *nullEngine) Attach(*Session)                   {}
func (n *nullEngine) OnDetect(graph.NodeID, int)        { n.detects++ }
func (n *nullEngine) OnPacket(graph.NodeID, sim.Packet) { n.packets++ }

// echoEngine repairs every detected loss by unicasting a request to the
// source, which answers with a unicast repair — a minimal closed loop for
// framework testing.
type echoEngine struct{ s *Session }

func (e *echoEngine) Name() string      { return "ECHO" }
func (e *echoEngine) Attach(s *Session) { e.s = s }
func (e *echoEngine) OnDetect(c graph.NodeID, seq int) {
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{Kind: sim.Request, Seq: seq, From: c, Payload: c})
}
func (e *echoEngine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	if pkt.Kind == sim.Request && host == e.s.Topo.Source {
		e.s.Net.Unicast(pkt.Payload.(graph.NodeID), sim.Packet{Kind: sim.Repair, Seq: pkt.Seq, From: host})
	}
}

func TestLosslessRunHasNoRecoveryTraffic(t *testing.T) {
	topo, err := topology.Chain(3, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := &nullEngine{}
	s, err := NewSession(topo, eng, Config{Packets: 20, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Losses != 0 || eng.detects != 0 {
		t.Fatalf("lossless run produced losses: %+v", res.Stats)
	}
	if res.Stats.DataDeliveries != int64(20*len(topo.Clients)) {
		t.Fatalf("data deliveries %d, want %d", res.Stats.DataDeliveries, 20*len(topo.Clients))
	}
	if res.Hops.Recovery() != 0 {
		t.Fatal("recovery hops in lossless run")
	}
	if !res.Complete {
		t.Fatal("run did not complete")
	}
	if res.Protocol != "NULL" {
		t.Fatalf("protocol name %q", res.Protocol)
	}
}

func TestLossesDetectedAndUnrecoveredWithNullEngine(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	// Certain loss on the client's access link for data.
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	topo.Loss[tree.ParentLink[c]] = 1
	eng := &nullEngine{}
	s, err := NewSession(topo, eng, Config{Packets: 5, Interval: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Losses != 5 || eng.detects != 5 {
		t.Fatalf("losses %d (detects %d), want 5", res.Stats.Losses, eng.detects)
	}
	if res.Stats.Unrecovered != 5 || res.Stats.Recoveries != 0 {
		t.Fatalf("unrecovered %d recoveries %d", res.Stats.Unrecovered, res.Stats.Recoveries)
	}
}

func TestEchoEngineRecoversEverything(t *testing.T) {
	topo, _ := topology.Chain(3, 2, []int{1})
	topo.SetUniformLoss(0.3)
	s, err := NewSession(topo, &echoEngine{}, Config{Packets: 200, Interval: 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Losses == 0 {
		t.Fatal("no losses at p=0.3?")
	}
	// The echo engine has no retries, so request/repair losses leave gaps.
	if res.Stats.Recoveries+res.Stats.Unrecovered != res.Stats.Losses {
		t.Fatalf("accounting identity broken: %d + %d != %d",
			res.Stats.Recoveries, res.Stats.Unrecovered, res.Stats.Losses)
	}
	if res.Stats.Recoveries == 0 {
		t.Fatal("echo engine recovered nothing")
	}
	// Latency for a successful echo is ≥ the client RTT to the source.
	if res.Stats.Latency.Min() <= 0 {
		t.Fatalf("non-positive recovery latency %v", res.Stats.Latency.Min())
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() *Result {
		topo, _ := topology.Standard(40, 0.15, 7)
		s, err := NewSession(topo, &echoEngine{}, Config{Packets: 50, Interval: 25}, 99)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.Hops != b.Hops || a.Events != b.Events {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSessionSeedSensitivity(t *testing.T) {
	topo1, _ := topology.Standard(40, 0.15, 7)
	s1, _ := NewSession(topo1, &echoEngine{}, Config{Packets: 50, Interval: 25}, 1)
	topo2, _ := topology.Standard(40, 0.15, 7)
	s2, _ := NewSession(topo2, &echoEngine{}, Config{Packets: 50, Interval: 25}, 2)
	a, b := s1.Run(), s2.Run()
	if a.Stats.Losses == b.Stats.Losses && a.Hops == b.Hops {
		t.Fatal("different seeds produced identical stochastic runs")
	}
}

// TestBadConfigRejected: a configuration the session cannot simulate is an
// error from NewSession, never a panic inside sim or a run that silently
// ignores a field.
func TestBadConfigRejected(t *testing.T) {
	topo, _ := topology.Star(2, 1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero packets", Config{Packets: 0, Interval: 10}},
		{"zero interval", Config{Packets: 5, Interval: 0}},
		{"NaN interval", Config{Packets: 5, Interval: nan}},
		{"infinite interval", Config{Packets: 5, Interval: inf}},
		{"last send at +Inf", Config{Packets: 5, Interval: 1e308}},
		{"NaN detect lag", Config{Packets: 5, Interval: 10, DetectLag: nan}},
		{"negative detect lag", Config{Packets: 5, Interval: 10, DetectLag: -100}},
		{"infinite detect lag", Config{Packets: 5, Interval: 10, DetectLag: inf}},
		{"NaN jitter", Config{Packets: 5, Interval: 10, Jitter: nan}},
		{"infinite jitter", Config{Packets: 5, Interval: 10, Jitter: inf}},
		{"negative jitter", Config{Packets: 5, Interval: 10, Jitter: -1}},
		{"jitter past the cap", Config{Packets: 5, Interval: 10, Jitter: 1e308}},
		{"NaN packet time", Config{Packets: 5, Interval: 10, PacketTime: nan}},
		{"infinite packet time", Config{Packets: 5, Interval: 10, PacketTime: inf}},
		{"unknown detection mode", Config{Packets: 5, Interval: 10, Detection: 9}},
		{"unknown check mode", Config{Packets: 5, Interval: 10, Check: 9}},
		{"negative domain size", Config{Packets: 5, Interval: 10, SimWorkers: 2, DomainClients: -4}},
		{"negative sim workers", Config{Packets: 5, Interval: 10, SimWorkers: -1}},
		{"crash at +Inf", Config{Packets: 5, Interval: 10,
			Fault: (&fault.Schedule{}).CrashHost(inf, topo.Clients[0])}},
		{"negative mutation probability", Config{Packets: 5, Interval: 10,
			Fault: mutation(fault.MutationParams{DupProb: -1})}},
		{"NaN mutation delay, nothing mutated", Config{Packets: 5, Interval: 10,
			Fault: mutation(fault.MutationParams{MaxDelay: nan})}},
		{"corruption past the cap", Config{Packets: 5, Interval: 10,
			Fault: mutation(fault.MutationParams{CorruptProb: 1})}},
	} {
		if _, err := NewSession(topo, &nullEngine{}, tc.cfg, 1); err == nil {
			t.Errorf("%s: %+v accepted", tc.name, tc.cfg)
		}
	}
	// A negative PacketTime means "off", and the largest finite program and
	// the largest jitter are fine.
	for _, cfg := range []Config{
		{Packets: 5, Interval: 10, Detection: DetectSession, PacketTime: -1},
		{Packets: 2, Interval: 1e308},
		{Packets: 5, Interval: 10, Jitter: maxJitter},
		{Packets: 5, Interval: 10, Fault: mutation(fault.MutationParams{
			DupProb: 1, MaxDup: 8, ReorderProb: 1, MaxDelay: 10_000, CorruptProb: 0.9})},
	} {
		if _, err := NewSession(topo, &nullEngine{}, cfg, 1); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
}

// mutation is a schedule whose only fault is p on every message class.
func mutation(p fault.MutationParams) *fault.Schedule {
	return (&fault.Schedule{}).SetMutation(&fault.MutationConfig{Request: p, Repair: p, Symbol: p})
}

func TestHasAndMissing(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	topo.Loss[tree.ParentLink[c]] = 1
	var snap struct {
		hasBefore, missingAtDetect bool
	}
	e := &hookEngine{onDetect: func(s *Session, cl graph.NodeID, seq int) {
		snap.hasBefore = s.Has(cl, seq)
		snap.missingAtDetect = s.Missing(cl, seq)
	}}
	s, err := NewSession(topo, e, Config{Packets: 1, Interval: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(topo.Source, 0) {
		t.Fatal("source must have every packet")
	}
	s.Run()
	if snap.hasBefore {
		t.Fatal("Has true for lost packet")
	}
	if !snap.missingAtDetect {
		t.Fatal("Missing false at detection time")
	}
	if s.Missing(topo.Source, 0) || s.Has(graph.NodeID(1), 0) {
		t.Fatal("non-client membership queries wrong")
	}
}

// hookEngine runs a closure on detection.
type hookEngine struct {
	s        *Session
	onDetect func(*Session, graph.NodeID, int)
}

func (h *hookEngine) Name() string      { return "HOOK" }
func (h *hookEngine) Attach(s *Session) { h.s = s }
func (h *hookEngine) OnDetect(c graph.NodeID, seq int) {
	if h.onDetect != nil {
		h.onDetect(h.s, c, seq)
	}
}
func (h *hookEngine) OnPacket(graph.NodeID, sim.Packet) {}

func TestMaxEventsAborts(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	// An engine that schedules forever.
	e := &hookEngine{}
	e.onDetect = func(s *Session, c graph.NodeID, seq int) {
		var loop func()
		loop = func() { s.Eng.After(1, loop) }
		loop()
	}
	tree := mustTree(t, topo)
	topo.Loss[tree.ParentLink[topo.Clients[0]]] = 1
	s, err := NewSession(topo, e, Config{Packets: 1, Interval: 10, MaxEvents: 1000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Complete {
		t.Fatal("runaway run reported complete")
	}
	if res.Events > 1000 {
		t.Fatalf("event cap not honoured: %d", res.Events)
	}
}

func TestDetectLagShiftsLatencyBase(t *testing.T) {
	topo, _ := topology.Chain(2, 1, nil)
	tree := mustTree(t, topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1

	var detected []float64
	e := &hookEngine{}
	e.onDetect = func(s *Session, cl graph.NodeID, seq int) {
		detected = append(detected, s.Eng.Now())
		// Restore the link so nothing else is lost.
	}
	s, err := NewSession(topo, e, Config{Packets: 1, Interval: 10, DetectLag: 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(detected) != 1 {
		t.Fatalf("detections %d", len(detected))
	}
	want := s.Net.WouldArrive(c) + 7
	if math.Abs(detected[0]-want) > 0.01 {
		t.Fatalf("detection at %v, want ≈%v", detected[0], want)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{}
	if r.BandwidthPerRecovery() != 0 || r.AvgLatency() != 0 {
		t.Fatal("empty result derived metrics should be 0")
	}
	r.Stats.Recoveries = 4
	r.Hops.Request = 6
	r.Hops.Repair = 6
	if r.BandwidthPerRecovery() != 1.5 {
		t.Fatalf("bw per recovery %v, want 1.5 (repairs only)", r.BandwidthPerRecovery())
	}
	if r.RequestHopsPerRecovery() != 1.5 {
		t.Fatalf("request hops per recovery %v, want 1.5", r.RequestHopsPerRecovery())
	}
	if r.TotalRecoveryHopsPerRecovery() != 3 {
		t.Fatalf("total recovery hops %v, want 3", r.TotalRecoveryHopsPerRecovery())
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}
