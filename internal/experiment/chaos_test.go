package experiment

import (
	"bytes"
	"reflect"
	"testing"
)

// TestChaosSweepParallelDeterminism asserts the chaos sweep is byte-identical
// at any worker count — same assertion the legacy sweeps carry, extended to
// the fault-injection grid where every cell additionally derives a fault
// schedule from its seeds.
func TestChaosSweepParallelDeterminism(t *testing.T) {
	base := RobustnessSweep{
		Axis:       "chaos",
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

// TestChaosZeroSeverityMatchesLegacy asserts the sweep's severity-0 cells run
// the exact legacy code path: a spec carrying chaos params at severity 0
// yields a result identical to the same spec with no chaos at all, so the
// zero row of every chaos figure reproduces fault-free figures byte-for-byte.
func TestChaosZeroSeverityMatchesLegacy(t *testing.T) {
	cp := chaosParams(0, 0.05, 20, 50)
	for _, proto := range ChaosProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 20, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
		}
		legacy, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		spec.Chaos = &cp
		spec.FaultSeed = 0xc4a05
		zero, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if legacy.Stats != zero.Stats || legacy.Hops != zero.Hops || legacy.Events != zero.Events {
			t.Fatalf("%s: severity-0 chaos diverged from legacy run:\n%+v\n%+v",
				proto, legacy, zero)
		}
	}
}

// TestChaosSweepSeverityDegradesDelivery sanity-checks the sweep output
// shape: four figures over the same rows, severity 0 delivering everything,
// and the harshest severity delivering strictly less for at least one
// protocol (faults must actually bite).
func TestChaosSweepSeverityDegradesDelivery(t *testing.T) {
	c := RobustnessSweep{
		Axis:       "chaos",
		Routers:    40,
		Levels:     []float64{0, 1},
		BaseLoss:   0.05,
		Packets:    20,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
		Parallel:   4,
	}
	delivery, latency, p99, bandwidth, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{delivery, latency, p99, bandwidth} {
		if len(f.Rows) != 2 {
			t.Fatalf("%q: %d rows, want 2", f.Name, len(f.Rows))
		}
	}
	bitten := false
	for _, proto := range ChaosProtocols {
		d0 := delivery.Value(delivery.Rows[0].Points[proto])
		d1 := delivery.Value(delivery.Rows[1].Points[proto])
		if d0 != 1 {
			t.Fatalf("%s: severity-0 delivery %v, want 1", proto, d0)
		}
		if d1 < 1 {
			bitten = true
		}
	}
	if !bitten {
		t.Fatal("severity 1 degraded no protocol's delivery — faults not injected?")
	}
}
