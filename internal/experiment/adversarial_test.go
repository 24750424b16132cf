package experiment

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"rmcast/internal/fault"
)

// TestMutationZeroMatchesLegacy asserts the mutation layer's no-op
// guarantee: a spec carrying an empty mutation config (and one carrying
// none) produce byte-identical results — same stats, same hop counts, same
// event total — so the zero row of every adversarial figure reproduces the
// mutation-free figures exactly, and the mutator provably draws nothing
// from the rng streams when disabled.
func TestMutationZeroMatchesLegacy(t *testing.T) {
	for _, proto := range AdversarialProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 20, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
		}
		legacy, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		spec.Mutation = &fault.MutationConfig{}
		zero, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if legacy.Stats != zero.Stats || legacy.Hops != zero.Hops || legacy.Events != zero.Events {
			t.Fatalf("%s: empty mutation config diverged from legacy run:\n%+v\n%+v",
				proto, legacy, zero)
		}
		if fault.MutationFromIntensity(0, 1000) != nil {
			t.Fatal("intensity 0 must map to nil")
		}
	}
}

// TestMutationSweepParallelDeterminism asserts the adversarial sweep is
// byte-identical at any worker count, like every other sweep in the harness:
// each cell's mutator stream is derived from the cell's own seeds, and the
// shared MutationConfig values are never written after construction.
func TestMutationSweepParallelDeterminism(t *testing.T) {
	base := RobustnessSweep{
		Axis:       "adversarial",
		Routers:    40,
		Levels:     []float64{0, 0.5, 1},
		BaseLoss:   0.05,
		Packets:    15,
		Interval:   50,
		Replicates: 2,
		BaseSeed:   2003,
	}
	serial := base
	serial.Parallel = 1
	var want [4]*Figure
	var err error
	want[0], want[1], want[2], want[3], err = serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par := base
		par.Parallel = workers
		var got [4]*Figure
		got[0], got[1], got[2], got[3], err = par.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parallel=%d: figure %q differs from serial", workers, want[i].Name)
			}
			if !bytes.Equal(figureBytes(t, got[i]), figureBytes(t, want[i])) {
				t.Fatalf("parallel=%d: figure %q bytes differ from serial", workers, want[i].Name)
			}
		}
	}
}

// TestMutationIntensityBites runs one cell at full intensity and checks the
// adversary is actually observable — duplicates suppressed, malformed
// packets rejected — while the hardened engine still achieves full delivery
// with a clean invariant record (Run fails on any oracle violation).
func TestMutationIntensityBites(t *testing.T) {
	for _, proto := range AdversarialProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 30, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
			Mutation: fault.MutationFromIntensity(1, 30*50),
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Stats.Malformed == 0 {
			t.Fatalf("%s: no malformed packets rejected at full intensity", proto)
		}
		if res.DeliveryRatio() != 1 || res.Stats.Unrecovered != 0 {
			t.Fatalf("%s: delivery %v with %d unrecovered under full mutation",
				proto, res.DeliveryRatio(), res.Stats.Unrecovered)
		}
	}
}

// TestMutationSweepDeliveryHolds is the sweep-level acceptance criterion:
// across the whole intensity grid every hardened engine keeps delivering
// everything — the adversary costs latency and bandwidth, never packets.
func TestMutationSweepDeliveryHolds(t *testing.T) {
	m := RobustnessSweep{
		Axis:       "adversarial",
		Routers:    40,
		Levels:     []float64{0, 1},
		BaseLoss:   0.05,
		Packets:    20,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
		Parallel:   4,
	}
	delivery, latency, p99, bandwidth, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{delivery, latency, p99, bandwidth} {
		if len(f.Rows) != 2 {
			t.Fatalf("%q: %d rows, want 2", f.Name, len(f.Rows))
		}
	}
	for _, proto := range AdversarialProtocols {
		for _, row := range delivery.Rows {
			if d := delivery.Value(row.Points[proto]); d != 1 {
				t.Fatalf("%s at %s: delivery %v, want 1", proto, row.Label, d)
			}
		}
	}
}

// TestAdversarialSoak is the long-haul chaos+mutation cross: the full
// default adversarial grid at production scale, plus max-intensity mutation
// layered on top of a mid-severity chaos schedule for every protocol. Gated
// behind RMCAST_SOAK=1 (make soak) — it runs minutes, not CI seconds.
func TestAdversarialSoak(t *testing.T) {
	if os.Getenv("RMCAST_SOAK") == "" {
		t.Skip("set RMCAST_SOAK=1 (or run `make soak`) to enable")
	}
	sweep := DefaultRobustness("adversarial")
	sweep.Replicates = 3
	sweep.Parallel = DefaultParallelism()
	if _, _, _, _, err := sweep.Run(); err != nil {
		t.Fatal(err)
	}
	// Mutation layered over chaos: crashes and outages plus a hostile
	// message plane, with the strict oracle on throughout. ChaosProtocols
	// here, not AdversarialProtocols: this leg exists to prove the
	// resilience layer and the mutation layer compose.
	cp := chaosParams(0.5, 0.05, 100, 50)
	for _, proto := range ChaosProtocols {
		spec := RunSpec{
			Routers: 100, Loss: 0.05, Protocol: proto,
			Packets: 100, Interval: 50,
			TopoSeed: 2003, SimSeed: 2005,
			Chaos: &cp, FaultSeed: 0xc4a05,
			Mutation: fault.MutationFromIntensity(1, 100*50),
		}
		if _, err := Run(spec); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}
