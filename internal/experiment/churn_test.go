package experiment

import (
	"bytes"
	"reflect"
	"testing"
)

// TestChurnSweepParallelDeterminism asserts the churn sweep is byte-identical
// at any worker count. Churn cells are the hardest case for this guarantee:
// the fault schedule targets the coordinator succession line and RP-FAILOVER
// cells run elections — all of which must still be a pure function of the
// cell seeds.
func TestChurnSweepParallelDeterminism(t *testing.T) {
	base := RobustnessSweep{
		Axis:       "churn",
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

// TestChurnZeroRateMatchesLegacy asserts the rate-0 cells run the exact
// legacy code path: a spec carrying churn params at rate 0 yields a result
// identical to the same spec with no churn at all.
func TestChurnZeroRateMatchesLegacy(t *testing.T) {
	cp := churnParams(0, 20, 50)
	for _, proto := range ChurnProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 20, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
		}
		legacy, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		spec.Churn = &cp
		spec.FaultSeed = 0xcf41
		zero, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if legacy.Stats != zero.Stats || legacy.Hops != zero.Hops || legacy.Events != zero.Events {
			t.Fatalf("%s: rate-0 churn diverged from legacy run:\n%+v\n%+v",
				proto, legacy, zero)
		}
	}
}

// TestChurnSweepFailoverBites sanity-checks the sweep semantics: at full
// churn the RP-FAILOVER cells must actually fail over (the waves target the
// succession line), while the protocols with no coordinator election report
// a structurally zero failover count.
func TestChurnSweepFailoverBites(t *testing.T) {
	c := RobustnessSweep{
		Axis:       "churn",
		Routers:    40,
		Levels:     []float64{0, 1},
		BaseLoss:   0.05,
		Packets:    20,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
		Parallel:   4,
	}
	delivery, _, _, failovers, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(failovers.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(failovers.Rows))
	}
	for _, proto := range ChurnProtocols {
		f0 := failovers.Value(failovers.Rows[0].Points[proto])
		f1 := failovers.Value(failovers.Rows[1].Points[proto])
		if f0 != 0 {
			t.Fatalf("%s: failovers at rate 0 = %v, want 0", proto, f0)
		}
		switch proto {
		case "RP-FAILOVER":
			if f1 < 1 {
				t.Fatalf("full churn produced %v failovers — waves missed the RP?", f1)
			}
		default:
			if f1 != 0 {
				t.Fatalf("%s has no coordinator election but reports %v failovers", proto, f1)
			}
		}
		if d := delivery.Value(delivery.Rows[0].Points[proto]); d != 1 {
			t.Fatalf("%s: rate-0 delivery %v, want 1", proto, d)
		}
	}
}
