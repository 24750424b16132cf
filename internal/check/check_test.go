package check

import (
	"strings"
	"testing"
)

// drive replays the clean two-client, two-packet history: both packets
// sent, client 0 loses and recovers seq 1, everything else arrives.
func drive(o *Oracle) Totals {
	o.OnSent(0)
	o.OnSent(1)
	o.OnData(0, 0, false, false)
	o.OnData(1, 0, false, false)
	o.OnData(1, 1, false, false)
	o.OnDetect(0, 1)
	o.OnRepair(0, 1, false, true)
	return Totals{
		Losses: 1, Recoveries: 1, DataDeliveries: 3,
		Delivered: 4,
	}
}

func TestCleanRunNoViolations(t *testing.T) {
	o := New(2, 2, true) // strict: any violation would panic
	tot := drive(o)
	if v := o.Finish(true, []bool{false, false}, tot); len(v) != 0 {
		t.Fatalf("clean run produced violations: %v", v)
	}
}

func TestStrictModePanicsOnSafetyViolation(t *testing.T) {
	o := New(1, 2, true)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("repair for a never-sent seq did not panic in strict mode")
		}
	}()
	o.OnRepair(0, 1, false, false) // nothing was ever sent
}

func TestRecordModeCollectsSafetyViolations(t *testing.T) {
	o := New(2, 3, false)
	o.OnSent(0)
	o.OnSent(0)                    // double multicast
	o.OnRepair(0, 2, false, false) // never sent
	o.OnData(0, 0, false, false)
	o.OnDetect(0, 0) // detect after delivery
	o.OnDetect(1, 5) // out of range
	v := o.Finish(false, nil, Totals{})
	for _, want := range []string{"multicast twice", "never-sent", "after delivery", "out-of-range"} {
		found := false
		for _, msg := range v {
			if strings.Contains(msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no violation mentioning %q in %v", want, v)
		}
	}
}

// TestDuplicateRepairNeverTransitionsTwice: the oracle counts a repeated
// repair as a duplicate, never a second recovery, and a conservation check
// that claims otherwise fails.
func TestDuplicateRepairNeverTransitionsTwice(t *testing.T) {
	o := New(1, 1, true)
	o.OnSent(0)
	o.OnDetect(0, 0)
	o.OnRepair(0, 0, false, true)
	o.OnRepair(0, 0, true, true) // duplicate: session already holds it
	v := o.Finish(true, nil, Totals{
		Losses: 1, Recoveries: 1, Duplicates: 1, Delivered: 1,
	})
	if len(v) != 0 {
		t.Fatalf("idempotent duplicate handling flagged: %v", v)
	}
	// Same history, but the session books the duplicate as a recovery.
	o2 := New(1, 1, false)
	o2.OnSent(0)
	o2.OnDetect(0, 0)
	o2.OnRepair(0, 0, false, true)
	o2.OnRepair(0, 0, true, true)
	v2 := o2.Finish(true, nil, Totals{
		Losses: 1, Recoveries: 2, Delivered: 1,
	})
	if len(v2) == 0 {
		t.Fatal("double-counted recovery passed conservation")
	}
}

// TestShadowDivergence: a session whose per-pair view disagrees with the
// oracle's is a safety violation at the event.
func TestShadowDivergence(t *testing.T) {
	o := New(1, 1, false)
	o.OnSent(0)
	o.OnData(0, 0, true, false) // session claims it already has seq 0
	v := o.Finish(false, nil, Totals{})
	if len(v) == 0 {
		t.Fatal("shadow divergence not flagged")
	}
	if !strings.Contains(v[0], "session has=true") {
		t.Fatalf("unexpected violation %q", v[0])
	}
}

func TestLivenessViolationOnOpenGap(t *testing.T) {
	o := New(1, 2, true) // strict: liveness must still only record, not panic
	o.OnSent(0)
	o.OnSent(1)
	o.OnData(0, 0, false, false)
	o.OnDetect(0, 1)
	// seq 1 never recovered; client 0 is up. Complete run → liveness fires.
	v := o.Finish(true, []bool{false}, Totals{
		Losses: 1, DataDeliveries: 1, Delivered: 1, Unrecovered: 1,
	})
	if len(v) != 1 || !strings.Contains(v[0], "liveness") {
		t.Fatalf("violations %v, want exactly one liveness finding", v)
	}
	// The same open gap on a crashed client is fine: it is classified.
	o2 := New(1, 2, true)
	o2.OnSent(0)
	o2.OnSent(1)
	o2.OnData(0, 0, false, false)
	o2.OnDetect(0, 1)
	v2 := o2.Finish(true, []bool{true}, Totals{
		Losses: 1, DataDeliveries: 1, Delivered: 1, UnrecoveredCrashed: 1,
	})
	if len(v2) != 0 {
		t.Fatalf("crashed client's gap flagged: %v", v2)
	}
	// An incomplete (event-capped) run asserts no liveness at all.
	o3 := New(1, 2, true)
	o3.OnSent(0)
	o3.OnSent(1)
	o3.OnData(0, 0, false, false)
	o3.OnDetect(0, 1)
	v3 := o3.Finish(false, []bool{false}, Totals{
		Losses: 1, DataDeliveries: 1, Delivered: 1, Unrecovered: 1,
	})
	if len(v3) != 0 {
		t.Fatalf("incomplete run flagged for liveness: %v", v3)
	}
}

func TestCheckBound(t *testing.T) {
	o := New(1, 1, false)
	o.CheckBound("cache", 10, 10)
	if v := o.Finish(false, nil, Totals{}); len(v) != 0 {
		t.Fatalf("at-capacity bound flagged: %v", v)
	}
	o.CheckBound("cache", 11, 10)
	if v := o.Finish(false, nil, Totals{}); len(v) != 1 || !strings.Contains(v[0], "exceeds its bound") {
		t.Fatalf("violations %v, want one bound finding", v)
	}
}

func TestViolationListBounded(t *testing.T) {
	o := New(1, 1, false)
	for i := 0; i < 10*maxViolations; i++ {
		o.OnDetect(0, -1) // out of range, recorded each time
	}
	if v := o.Finish(false, nil, Totals{}); len(v) > maxViolations {
		t.Fatalf("violation list unbounded: %d entries", len(v))
	}
}

// TestShardOraclesOwnTheirRows splits drive's history over two shard
// oracles, each holding only its own client's rows: an event for the other
// client faults, and a master that absorbs both finishes as cleanly as the
// serial oracle.
func TestShardOraclesOwnTheirRows(t *testing.T) {
	sent := make([]bool, 2)
	a := NewShard(2, 2, true, sent, []int{0})
	b := NewShard(2, 2, true, sent, []int{1})
	if a.rows[1] != nil || b.rows[0] != nil {
		t.Fatal("shard oracle allocated rows for a client it does not own")
	}
	a.OnSent(0)
	a.OnSent(1)
	a.OnData(0, 0, false, false)
	b.OnData(1, 0, false, false)
	b.OnData(1, 1, false, false)
	a.OnDetect(0, 1)
	a.OnRepair(0, 1, false, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an event for a client the shard does not own did not fault")
			}
		}()
		a.OnData(1, 1, false, false)
	}()

	master := NewShard(2, 2, true, sent, nil)
	master.Absorb(a)
	master.Absorb(b)
	tot := Totals{Losses: 1, Recoveries: 1, DataDeliveries: 3, Delivered: 4}
	if v := master.Finish(true, []bool{false, false}, tot); len(v) != 0 {
		t.Fatalf("absorbed shards produced violations: %v", v)
	}
}
