package experiment

import (
	"math"
	"slices"
	"strings"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// FuzzMutator throws arbitrary mutation configs — including NaN, infinite,
// negative and absurd values — at small but complete simulation runs of
// every hardened engine, with the strict invariant oracle on. A config with
// a field out of range must be rejected both by Run and by a caller that
// goes straight to protocol.NewSession, each naming such a field. A valid
// config must run clean whatever the adversary's parameters: Run's Check
// fails an event-cap hit, an unrecovered loss, or any oracle violation, and
// the oracle panics mid-run on safety divergence.
func FuzzMutator(f *testing.F) {
	f.Add(uint64(1), 0.3, 0.4, 0.12, 25.0, int16(3), 100.0, 300.0, int16(2), uint8(0))
	f.Add(uint64(2), 1.0, 1.0, 1.0, 1e12, int16(999), math.Inf(-1), math.NaN(), int16(-5), uint8(1))
	f.Add(uint64(3), math.NaN(), -1.0, 0.5, -3.0, int16(0), 0.0, 500.0, int16(16), uint8(2))
	f.Add(uint64(4), 0.9, 0.0, 0.0, 0.0, int16(8), 200.0, 100.0, int16(1), uint8(3))
	f.Add(uint64(5), 1.0, 1.0, 0.9, 10_000.0, int16(8), 0.0, 400.0, int16(16), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64,
		dup, reorder, corrupt, maxDelay float64, maxDup int16,
		stormFrom, stormTo float64, stormExtra int16, protoIdx uint8) {
		p := fault.MutationParams{
			DupProb:     dup,
			MaxDup:      int(maxDup),
			ReorderProb: reorder,
			MaxDelay:    maxDelay,
			CorruptProb: corrupt,
		}
		cfg := &fault.MutationConfig{
			Request: p,
			Repair:  p,
			Storms:  []fault.StormWindow{{From: stormFrom, To: stormTo, Extra: int(stormExtra)}},
		}
		proto := AdversarialProtocols[int(protoIdx)%len(AdversarialProtocols)]
		spec := RunSpec{
			Routers: 25, Loss: 0.05, Protocol: proto,
			Packets: 8, Interval: 50,
			TopoSeed: 2003, SimSeed: seed,
			Mutation: cfg,
		}
		_, err := Run(spec)
		bad := badFields(p)
		if len(bad) == 0 {
			if err != nil {
				t.Fatalf("%s under %+v: %v", proto, cfg, err)
			}
			return
		}
		topo, terr := topology.Standard(spec.Routers, spec.Loss, spec.TopoSeed)
		if terr != nil {
			t.Fatal(terr)
		}
		eng, eerr := NewEngine(proto)
		if eerr != nil {
			t.Fatal(eerr)
		}
		_, serr := protocol.NewSession(topo, eng, protocol.Config{
			Packets: spec.Packets, Interval: spec.Interval, Fault: &fault.Schedule{Mutation: cfg},
		}, seed)
		for caller, err := range map[string]error{"Run": err, "protocol.NewSession": serr} {
			if err == nil || !slices.ContainsFunc(bad, func(name string) bool {
				return strings.Contains(err.Error(), "Request."+name+" = ")
			}) {
				t.Fatalf("%s under %+v: %s returned %v, want an error naming Request. and one of %v",
					proto, cfg, caller, err, bad)
			}
		}
	})
}

// badFields names the fields of p the mutator cannot honour as given: a
// probability outside [0, 1], a CorruptProb above 0.9, a MaxDelay outside
// [0, 10 000] ms or a MaxDup outside [0, 8].
func badFields(p fault.MutationParams) []string {
	var bad []string
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"DupProb", 0 <= p.DupProb && p.DupProb <= 1},
		{"MaxDup", 0 <= p.MaxDup && p.MaxDup <= 8},
		{"ReorderProb", 0 <= p.ReorderProb && p.ReorderProb <= 1},
		{"MaxDelay", 0 <= p.MaxDelay && p.MaxDelay <= 10_000},
		{"CorruptProb", 0 <= p.CorruptProb && p.CorruptProb <= 0.9},
	} {
		if !f.ok {
			bad = append(bad, f.name)
		}
	}
	return bad
}

// FuzzRunPath drives the one run path across its envelope: any engine, any
// worker count and domain size, every detection mode, crash, link-outage,
// burst and mutation faults, lossy recovery, jitter and queueing, and raw
// Interval and DetectLag values, on a few 50-router networks. Either
// NewSession rejects the configuration, or both the serial run and the one
// at the fuzzed worker count finish without a panic — the strict oracle is
// on — and, when the serial run completes, with the same digest. A run asked
// for two or more workers shards or names why it did not.
func FuzzRunPath(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(9), 50.0, 0.0, uint8(0))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(0), uint8(3), uint8(14), 50.0, 2.0, uint8(1))
	f.Add(uint8(0), uint8(3), uint8(0), uint8(1), uint8(0x7c), uint8(11), 20.0, 0.0, uint8(2))
	f.Add(uint8(14), uint8(2), uint8(2), uint8(2), uint8(0x03), uint8(7), 30.0, 1.0, uint8(0))
	f.Add(uint8(13), uint8(3), uint8(3), uint8(0), uint8(0x01), uint8(12), 40.0, 0.5, uint8(1))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(0), uint8(0), uint8(4), math.NaN(), 0.0, uint8(0))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(4), 1e308, 0.0, uint8(0))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), uint8(4), 50.0, -100.0, uint8(0))
	// A time scale at which t0 + Δ rounds to t0: windows could not advance.
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), uint8(4), 1.4285714285714286e307, 0.0, uint8(0))
	var nets []*topology.Network
	for _, seed := range []uint64{2053, 7, 99} {
		net, err := topology.Standard(50, 0.05, seed)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, net)
	}
	f.Fuzz(func(t *testing.T, engine, workers, domain, detection, faults, packets uint8,
		interval, lag float64, topo uint8) {
		net := nets[int(topo)%len(nets)]
		name := Engines()[int(engine)%len(Engines())]
		cfg := protocol.Config{
			Packets:       int(packets)%15 + 1,
			Interval:      interval,
			DetectLag:     lag,
			Detection:     protocol.DetectionMode(detection % 3),
			DomainClients: []int{0, 8, 16, 64}[domain%4],
			LossyRecovery: faults&0x10 != 0,
			MaxEvents:     1 << 20,
			Fault:         fuzzSchedule(net, faults),
		}
		if faults&0x20 != 0 {
			cfg.Jitter = 0.3
		}
		if faults&0x40 != 0 {
			cfg.PacketTime = 0.2
		}
		run := func(workers int) (*protocol.Result, error) {
			eng, err := NewEngine(name)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.SimWorkers = workers
			s, err := protocol.NewSession(net, eng, c, 11)
			if err != nil {
				return nil, err
			}
			return s.Run(), nil
		}
		w := []int{1, 2, 4, 8}[workers%4]
		serial, serr := run(0)
		res, err := run(w)
		if (serr == nil) != (err == nil) {
			t.Fatalf("%s %+v: NewSession disagrees across worker counts: %v vs %v", name, cfg, serr, err)
		}
		if err != nil {
			return
		}
		if w >= 2 && !res.Sharded && res.SerialReason == "" {
			t.Fatalf("%s %+v: %d workers neither sharded nor named a reason", name, cfg, w)
		}
		if got, want := ResultDigest(res), ResultDigest(serial); serial.Complete && got != want {
			t.Fatalf("%s %+v: %d workers digest %s, serial %s", name, cfg, w, got, want)
		}
	})
}

// fuzzSchedule builds the fault schedule FuzzRunPath's flag bits select:
// 1 crash windows, 2 link outages, 4 a burst-loss link, 8 message-plane
// mutation. Nil when no bit is set.
func fuzzSchedule(net *topology.Network, flags uint8) *fault.Schedule {
	if flags&0x0f == 0 {
		return nil
	}
	s := &fault.Schedule{}
	cl, tl := net.Clients, net.TreeEdges
	if flags&1 != 0 {
		s.CrashWindow(cl[3%len(cl)], 60, 400)
		s.CrashWindow(cl[17%len(cl)], 250, 900)
	}
	if flags&2 != 0 {
		s.LinkDownWindow(tl[5%len(tl)], 100, 450)
	}
	if flags&4 != 0 {
		s.SetBurst(tl[2%len(tl)], fault.GEParams{PGB: 0.1, PBG: 0.4, LossGood: 0.01, LossBad: 0.6})
	}
	if flags&8 != 0 {
		p := fault.MutationParams{DupProb: 0.2, ReorderProb: 0.2, MaxDelay: 20, CorruptProb: 0.1}
		s.SetMutation(&fault.MutationConfig{Request: p, Repair: p, Symbol: p})
	}
	return s
}
