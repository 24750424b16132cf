package protocol

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

// probeEngine is the echo engine plus a residency probe: Attach schedules a
// t = 0 callback, which fires ahead of every program event at t = 0 and
// records how many events the engine holds once the program is laid out.
// Shard clones share the record.
type probeEngine struct {
	echoEngine
	mu      *sync.Mutex
	pending *[]int
}

func (p *probeEngine) Attach(s *Session) {
	p.echoEngine.Attach(s)
	s.Eng.Schedule(0, func() {
		p.mu.Lock()
		*p.pending = append(*p.pending, s.Eng.Pending())
		p.mu.Unlock()
	})
}

func (p *probeEngine) CloneForShard() Engine {
	return &probeEngine{mu: p.mu, pending: p.pending}
}

// TestDetectProgramResidency: the calendar holds at most one send and one
// detect event per packet, whatever the group size — in a serial run and
// on every domain engine — including when every client ties exactly.
func TestDetectProgramResidency(t *testing.T) {
	tree, err := topology.GenerateTree(topology.DefaultTreeConfig(200), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := topology.Binary(5, 1) // 32 clients, all at offset 6
	if err != nil {
		t.Fatal(err)
	}
	uniform.SetUniformLoss(0.05)
	for _, tc := range []struct {
		name string
		topo *topology.Network
	}{{"tree", tree}, {"uniform", uniform}} {
		for _, workers := range []int{0, 2} {
			var mu sync.Mutex
			var pending []int
			cfg := Config{Packets: 12, Interval: 10, SimWorkers: workers}
			s, err := NewSession(tc.topo, &probeEngine{mu: &mu, pending: &pending}, cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if !res.Complete || res.Stats.Unrecovered != 0 || len(res.Violations) > 0 {
				t.Fatalf("%s w%d: run failed: complete=%v unrecovered=%d %v",
					tc.name, workers, res.Complete, res.Stats.Unrecovered, res.Violations)
			}
			if res.Sharded != (workers >= 2) {
				t.Fatalf("%s w%d: sharded=%v (%s)", tc.name, workers, res.Sharded, res.SerialReason)
			}
			if want := max(1, res.Domains); len(pending) != want {
				t.Fatalf("%s w%d: %d probes fired, want %d", tc.name, workers, len(pending), want)
			}
			for _, n := range pending {
				if n > 2*cfg.Packets {
					t.Errorf("%s w%d: %d events pending after layout, want at most %d (2 × packets)",
						tc.name, workers, n, 2*cfg.Packets)
				}
			}
		}
	}
}

// detectLog records the (node, seq) order of loss detections.
type detectLog []trace.Event

func (l *detectLog) Emit(e trace.Event) {
	if e.Kind == trace.Detect {
		*l = append(*l, e)
	}
}

// TestDetectProgramOneUlpOrder: two clients whose offsets differ by one ulp
// (0.1+0.2 against 0.3), the larger at the lower client index. Packet 0
// detects them at distinct instants, in offset order; from packet 1 on the
// send time absorbs the ulp, the instants tie, and the eager schedule fires
// them in client-index order — against offset order. The lazy program must
// follow the same (time, packet, client index) order.
func TestDetectProgramOneUlpOrder(t *testing.T) {
	b := topology.NewBuilder()
	src := b.Source()
	r := b.Router()
	b.TreeLink(src, r, 0.1)
	b.SetLoss(b.TreeLink(r, b.Client(), 0.2), 1)
	b.SetLoss(b.TreeLink(src, b.Client(), 0.3), 1)
	topo := b.MustBuild()
	cfg := Config{Packets: 6, Interval: 10}
	s, err := NewSession(topo, &echoEngine{}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got detectLog
	s.Trace = &got
	w0, w1 := s.Net.WouldArrive(topo.Clients[0]), s.Net.WouldArrive(topo.Clients[1])
	if w0 != math.Nextafter(w1, 1) {
		t.Fatalf("offsets %v and %v are not one ulp apart", w0, w1)
	}
	res := s.Run()
	if res.Stats.Unrecovered != 0 || len(res.Violations) > 0 {
		t.Fatalf("run failed: %+v %v", res.Stats, res.Violations)
	}

	type detect struct {
		at   float64
		seq  int
		node graph.NodeID
	}
	var want []detect
	ties := 0
	for seq := 0; seq < cfg.Packets; seq++ {
		at0 := s.sentAt[seq] + w0 + cfg.DetectLag + detectEps
		at1 := s.sentAt[seq] + w1 + cfg.DetectLag + detectEps
		if at0 == at1 {
			ties++
		}
		want = append(want, detect{at0, seq, topo.Clients[0]}, detect{at1, seq, topo.Clients[1]})
	}
	if ties == 0 || ties == cfg.Packets {
		t.Fatalf("%d of %d packets tie: the fixture must mix tied and split instants", ties, cfg.Packets)
	}
	// Stable: equal instants keep (packet, client index) order.
	slices.SortStableFunc(want, func(x, y detect) int {
		switch {
		case x.at < y.at:
			return -1
		case x.at > y.at:
			return 1
		}
		return 0
	})
	if len(got) != len(want) {
		t.Fatalf("%d detections, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g.At != w.at || g.Seq != w.seq || graph.NodeID(g.Node) != w.node {
			t.Fatalf("detection %d: node %d seq %d at %v, want node %d seq %d at %v",
				k, g.Node, g.Seq, g.At, w.node, w.seq, w.at)
		}
	}
}

// popLog is a sim.Callee that records every event it receives and, as
// steered by the fuzz input, schedules follow-up events: some at the same
// instant, some exactly on a later detection instant of the program.
type popLog struct {
	eng    *sim.Engine
	shape  []byte
	sentAt []float64
	offs   []float64
	lag    float64
	pops   []pop
}

type pop struct {
	at       float64
	op, a, b int
}

const opFollow = 100

func (l *popLog) OnSimEvent(op, a, b int) {
	k := len(l.pops)
	l.pops = append(l.pops, pop{at: l.eng.Now(), op: op, a: a, b: b})
	if op == opFollow || len(l.shape) == 0 {
		return
	}
	switch v := int(l.shape[k%len(l.shape)]); v % 3 {
	case 1:
		l.eng.ScheduleCall(l.eng.Now(), l, opFollow, k, 0)
	case 2:
		if len(l.offs) == 0 {
			return
		}
		// Tie with another detection of this packet or a later one: a
		// program event that is reserved but possibly not yet pushed.
		seq := min(a+v%2, len(l.sentAt)-1)
		if op == opDetect {
			seq = min(b+v%2, len(l.sentAt)-1)
		}
		if at := l.sentAt[seq] + l.offs[v%len(l.offs)] + l.lag + detectEps; at >= l.eng.Now() {
			l.eng.ScheduleCall(at, l, opFollow, k, 1)
		}
	}
}

// FuzzDetectProgram checks the lazy program against the eager schedule it
// replaces: on bare engines, with the same events scheduled before it and
// the same follow-ups pushed from its callbacks, both must pop the same
// events in the same order at the same instants.
func FuzzDetectProgram(f *testing.F) {
	f.Add(uint8(4), uint8(6), 10.0, 0.0, true, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(12), uint8(20), 50.0, 0.5, false, []byte{1, 1, 1, 1})
	f.Add(uint8(3), uint8(9), 0.1, 0.2, true, []byte{3, 7, 11, 2, 6})
	f.Add(uint8(5), uint8(0), 1.0, 0.0, true, []byte{})
	f.Fuzz(func(t *testing.T, packets, clients uint8, interval, lag float64, sends bool, shape []byte) {
		p := int(packets%16) + 1
		n := int(clients % 40)
		if !(interval > 0 && interval < 1e9) {
			interval = 1
		}
		if !(lag >= 0 && lag < 1e9) {
			lag = 0
		}
		sentAt := make([]float64, p)
		for seq := range sentAt {
			sentAt[seq] = float64(seq) * interval
		}
		// Offsets: fresh values, exact ties, one-ulp neighbours and the
		// 0.1+0.2 / 0.3 pair; clients ascending but gapped, as a domain's.
		tenth, fifth := 0.1, 0.2
		offs := make([]float64, n)
		index := make([]int, n)
		for pos := range offs {
			index[pos] = 3*pos + 1
			var v byte
			if len(shape) > 0 {
				v = shape[pos%len(shape)] + byte(pos)
			}
			switch {
			case pos == 0 || v%4 == 0:
				offs[pos] = 0.25 + float64(v)*0.37
			case v%4 == 1:
				offs[pos] = offs[int(v)%pos]
			case v%4 == 2:
				offs[pos] = math.Nextafter(offs[int(v)%pos], math.Inf(1))
			case v%8 == 3:
				offs[pos] = tenth + fifth // 0.30000000000000004
			default:
				offs[pos] = 0.3
			}
		}

		run := func(lazy bool) []pop {
			eng := sim.NewEngine()
			log := &popLog{eng: eng, shape: shape, sentAt: sentAt, offs: offs, lag: lag}
			// Events scheduled ahead of the program, as Attach and fault
			// hooks do.
			eng.ScheduleCall(0, log, opFollow, -1, 0)
			eng.ScheduleCall(sentAt[p-1], log, opFollow, -2, 0)
			if lazy {
				byOff := make([]detectEntry, n)
				for pos := range byOff {
					byOff[pos] = detectEntry{off: offs[pos], pos: int32(pos), client: int32(index[pos])}
				}
				layOutProgram(eng, log, sentAt, lag, byOff, sends)
				if resident, bound := eng.Pending()-2, 2*p; resident > bound {
					t.Fatalf("%d program events resident after layout, want at most %d", resident, bound)
				}
			} else {
				for seq, at := range sentAt {
					if sends {
						eng.ScheduleCall(at, log, opSendData, seq, 0)
					}
					for pos, off := range offs {
						eng.ScheduleCall(at+off+lag+detectEps, log, opDetect, index[pos], seq)
					}
				}
			}
			eng.Run(0)
			return log.pops
		}
		eager, lazy := run(false), run(true)
		if len(lazy) != len(eager) {
			t.Fatalf("lazy program popped %d events, eager schedule %d", len(lazy), len(eager))
		}
		for k := range eager {
			e, l := eager[k], lazy[k]
			if e.at != l.at || e.op != l.op || e.a != l.a || e.b != l.b {
				t.Fatalf("pop %d: lazy (t=%v op=%d %d %d), eager (t=%v op=%d %d %d)",
					k, l.at, l.op, l.a, l.b, e.at, e.op, e.a, e.b)
			}
		}
	})
}
