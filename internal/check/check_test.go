package check

import (
	"fmt"
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
	o := New(2, 2) // any event-level violation would panic
	tot := drive(o)
	if v := o.Finish(true, []bool{false, false}, tot); len(v) != 0 {
		t.Fatalf("clean run produced violations: %v", v)
	}
}

// mustPanic runs f and returns the message it panicked with; it fails the
// test if f returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestStrictModePanicsOnSafetyViolation: every event-level safety violation
// panics with a message naming it.
func TestStrictModePanicsOnSafetyViolation(t *testing.T) {
	for _, tc := range []struct {
		want string
		run  func(o *Oracle)
	}{
		{"never-sent", func(o *Oracle) { o.OnRepair(0, 1, false, false) }},
		{"multicast twice", func(o *Oracle) { o.OnSent(0); o.OnSent(0) }},
		{"after delivery", func(o *Oracle) { o.OnSent(0); o.OnData(0, 0, false, false); o.OnDetect(0, 0) }},
		{"out-of-range", func(o *Oracle) { o.OnDetect(1, 5) }},
	} {
		o := New(2, 3)
		if msg := mustPanic(t, func() { tc.run(o) }); !strings.Contains(msg, tc.want) {
			t.Errorf("panic %q does not mention %q", msg, tc.want)
		}
	}
}

// TestDuplicateRepairNeverTransitionsTwice: the oracle counts a repeated
// repair as a duplicate, never a second recovery, and a conservation check
// that claims otherwise fails.
func TestDuplicateRepairNeverTransitionsTwice(t *testing.T) {
	o := New(1, 1)
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
	o2 := New(1, 1)
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
	o := New(1, 1)
	o.OnSent(0)
	// The session claims it already has seq 0.
	if msg := mustPanic(t, func() { o.OnData(0, 0, true, false) }); !strings.Contains(msg, "session has=true") {
		t.Fatalf("unexpected violation %q", msg)
	}
}

func TestLivenessViolationOnOpenGap(t *testing.T) {
	o := New(1, 2) // liveness is recorded, not thrown
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
	o2 := New(1, 2)
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
	o3 := New(1, 2)
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
	o := New(1, 1)
	o.CheckBound("cache", 10, 10)
	if v := o.Finish(false, nil, Totals{}); len(v) != 0 {
		t.Fatalf("at-capacity bound flagged: %v", v)
	}
	if msg := mustPanic(t, func() { o.CheckBound("cache", 11, 10) }); !strings.Contains(msg, "exceeds its bound") {
		t.Fatalf("unexpected violation %q", msg)
	}
}

// TestViolationListBounded: a run that leaves every gap open finds one
// liveness violation per gap, and the list keeps at most maxViolations.
func TestViolationListBounded(t *testing.T) {
	n := 10 * maxViolations
	o := New(1, n)
	for seq := 0; seq < n; seq++ {
		o.OnSent(seq)
		o.OnDetect(0, seq)
	}
	v := o.Finish(true, []bool{false}, Totals{Losses: int64(n), Unrecovered: int64(n)})
	if len(v) != maxViolations {
		t.Fatalf("%d violations recorded, want the bound %d", len(v), maxViolations)
	}
}

// TestShardOraclesOwnTheirRows splits drive's history over two shard
// oracles, each holding only its own client's rows: an event for the other
// client faults, and a master that absorbs both finishes as cleanly as the
// serial oracle.
func TestShardOraclesOwnTheirRows(t *testing.T) {
	sent := make([]bool, 2)
	a := NewShard(2, 2, sent, []int{0})
	b := NewShard(2, 2, sent, []int{1})
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

	master := NewShard(2, 2, sent, nil)
	master.Absorb(a)
	master.Absorb(b)
	tot := Totals{Losses: 1, Recoveries: 1, DataDeliveries: 3, Delivered: 4}
	if v := master.Finish(true, []bool{false, false}, tot); len(v) != 0 {
		t.Fatalf("absorbed shards produced violations: %v", v)
	}
}
