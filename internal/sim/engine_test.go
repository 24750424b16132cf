package sim

import (
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(9, func() { order = append(order, 3) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 9 {
		t.Fatalf("clock %v, want 9", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(3, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

// orderCallee records the a argument of every call it receives.
type orderCallee struct{ order []int }

func (c *orderCallee) OnSimEvent(op, a, b int) { c.order = append(c.order, a) }

// TestReservedSeqKeepsScheduleOrder: events pushed late at reserved
// sequence numbers fire as if they had been scheduled at reservation time —
// ahead of same-instant events scheduled after the reservation — and a
// number that was never handed out is refused.
func TestReservedSeqKeepsScheduleOrder(t *testing.T) {
	e := NewEngine()
	c := &orderCallee{}
	e.ScheduleCall(3, c, 0, 0, 0)
	first := e.ReserveSeq(2)
	e.ScheduleCall(3, c, 0, 3, 0)
	e.ScheduleCall(1, c, 0, -1, 0)
	e.Schedule(2, func() {
		// Pushed out of order, at t = 2, onto an instant already holding a
		// later-scheduled event.
		e.ScheduleCallSeq(3, first+1, c, 0, 2, 0)
		e.ScheduleCallSeq(3, first, c, 0, 1, 0)
	})
	e.Run(0)
	want := []int{-1, 0, 1, 2, 3}
	if len(c.order) != len(want) {
		t.Fatalf("fired %v, want %v", c.order, want)
	}
	for i := range want {
		if c.order[i] != want[i] {
			t.Fatalf("fired %v, want %v", c.order, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push at a seq never handed out did not panic")
		}
	}()
	e.ScheduleCallSeq(4, first+100, c, 0, 0, 0)
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		if depth < 100 {
			depth++
			e.After(1, rec)
		}
	}
	e.After(0, rec)
	n := e.Run(0)
	if depth != 100 || n != 101 {
		t.Fatalf("nested chain depth %d events %d", depth, n)
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100", e.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {})
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("Run(4) executed %d", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending %d, want 6", e.Pending())
	}
}

func TestRunBefore(t *testing.T) {
	e := NewEngine()
	fired := 0
	for _, at := range []float64{1, 2, 3, 3, 5} {
		e.Schedule(at, func() { fired++ })
	}
	// The horizon is exclusive, and the clock stays at the last event.
	if n := e.RunBefore(3, 10); n != 2 || fired != 2 || e.Now() != 2 {
		t.Fatalf("RunBefore(3) fired %d (%d) at clock %v, want 2 at 2", n, fired, e.Now())
	}
	// The budget caps the events fired.
	if n := e.RunBefore(10, 1); n != 1 || e.Pending() != 2 {
		t.Fatalf("RunBefore(10, 1) fired %d leaving %d, want 1 leaving 2", n, e.Pending())
	}
	if n := e.RunBefore(math.Inf(1), 10); n != 2 || fired != 5 || e.Now() != 5 {
		t.Fatalf("RunBefore(+Inf) fired %d, clock %v, want 2 and 5", n, e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(5, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Fatal("double Stop should return false")
	}
	e.Run(0)
	if fired || tm.Fired() {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(5, func() { fired = true })
	e.Run(0)
	if !fired || !tm.Fired() {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing should return false")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run(0)
	if e.Processed() != 7 {
		t.Fatalf("processed %d, want 7", e.Processed())
	}
}

func TestScheduleRejectsNonFinite(t *testing.T) {
	e := NewEngine()
	for _, bad := range []float64{nan(), inf()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Schedule(%v) did not panic", bad)
				}
			}()
			e.Schedule(bad, func() {})
		}()
	}
}

func nan() float64 { return inf() - inf() }
func inf() float64 { x := 1.0; return x / (x - 1) }
