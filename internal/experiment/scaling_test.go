package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestScalingSweepSmall(t *testing.T) {
	s := ScalingSweep{Sizes: []int{200, 400}, BaseSeed: 1}
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 2 {
		t.Fatalf("got %d cells, want 2", len(report))
	}
	for _, c := range report {
		if !c.FastPath {
			t.Fatalf("n=%d: fast path not engaged", c.Clients)
		}
		if !c.Verified || c.ScanMs <= 0 || c.Speedup <= 0 {
			t.Fatalf("n=%d: scan baseline missing or unverified: %+v", c.Clients, c)
		}
		if c.PlanMs <= 0 || c.ReplanMs <= 0 || c.TreeDepth <= 0 || c.MeanPeers <= 0 {
			t.Fatalf("n=%d: implausible cell %+v", c.Clients, c)
		}
		// Cells this small plan below the batch fan-out cutoff.
		if c.PlanWorkers != 1 {
			t.Fatalf("n=%d: planned on %d workers, want 1", c.Clients, c.PlanWorkers)
		}
		// The steady-state replan pass must not allocate (the planner's
		// zero-alloc contract, also pinned by a core test).
		if c.ReplanAllocs > 64 {
			t.Fatalf("n=%d: replan allocated %d times", c.Clients, c.ReplanAllocs)
		}
	}
	if report[0].Clients != 200 || report[1].Clients != 400 {
		t.Fatal("cells out of order")
	}

	var tbl bytes.Buffer
	if err := report.Format(&tbl); err != nil {
		t.Fatal(err)
	}
	if out := tbl.String(); !strings.Contains(out, "400") || !strings.Contains(out, "plan workers") {
		t.Fatalf("table missing a cell or the plan workers column: %q", out)
	}
}

func TestScalingSkipsScanPastCutoff(t *testing.T) {
	s := ScalingSweep{Sizes: []int{scanCutoff + 1}, BaseSeed: 2}
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := report[0]; c.ScanMs != 0 || c.Verified {
		t.Fatalf("scan should be skipped past the cutoff: %+v", c)
	}
}

// TestScalingRejectsNegativeSimWorkers: a negative worker count or domain
// size is an error, not a sweep that silently skips its simulation phase or
// runs without it.
func TestScalingRejectsNegativeSimWorkers(t *testing.T) {
	for _, tc := range []struct {
		s    ScalingSweep
		want string
	}{
		{ScalingSweep{Sizes: []int{200}, BaseSeed: 1, SimWorkers: -1}, "SimWorkers = -1"},
		{ScalingSweep{Sizes: []int{200}, BaseSeed: 1, DomainClients: -5}, "DomainClients = -5"},
	} {
		if _, err := tc.s.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run returned %v, want an error naming %q", err, tc.want)
		}
	}
}
