package rma

import (
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// TestDuplicateRepairIdempotent drives the engine through a lossy run whose
// message plane duplicates every control packet (requests and repairs, up to
// the cap) with jitter. Safety: every loss recovers exactly once — the extra
// copies are booked as duplicates, never as second recoveries (the strict
// invariant oracle enforces the accounting event by event). Liveness: full
// delivery despite the noise.
func TestDuplicateRepairIdempotent(t *testing.T) {
	topo, err := topology.Standard(40, 0.08, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 40, Interval: 20}
	cfg.Fault = (&fault.Schedule{}).SetMutation(&fault.MutationConfig{
		Request: fault.MutationParams{DupProb: 1, MaxDup: 8, MaxDelay: 5},
		Repair:  fault.MutationParams{DupProb: 1, MaxDup: 8, MaxDelay: 5},
	})
	e := New()
	s, err := protocol.NewSession(topo, e, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatal("run hit the event cap")
	}
	if res.Stats.Losses == 0 {
		t.Fatal("no losses — the run exercised nothing")
	}
	if res.Stats.Duplicates == 0 {
		t.Fatal("no duplicates observed — the mutator did not bite")
	}
	if res.DeliveryRatio() != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("delivery %v with %d unrecovered under duplication",
			res.DeliveryRatio(), res.Stats.Unrecovered)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("pending recoveries left behind")
	}
}
