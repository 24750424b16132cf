package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestScalingSweepSmall(t *testing.T) {
	s := ScalingSweep{Sizes: []int{200, 400}, ScanCutoff: 400, BaseSeed: 1}
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

	var tbl, md, csv bytes.Buffer
	if err := report.Format(&tbl); err != nil {
		t.Fatal(err)
	}
	if err := report.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := report.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"table": tbl.String(), "markdown": md.String(), "csv": csv.String()} {
		if !strings.Contains(out, "400") {
			t.Fatalf("%s rendering missing cell: %q", name, out)
		}
		if !strings.Contains(strings.ReplaceAll(out, "_", " "), "plan workers") {
			t.Fatalf("%s rendering missing the plan workers column: %q", name, out)
		}
	}
}

func TestScalingSkipsScanPastCutoff(t *testing.T) {
	s := ScalingSweep{Sizes: []int{300}, ScanCutoff: 100, BaseSeed: 2}
	report, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := report[0]; c.ScanMs != 0 || c.Verified {
		t.Fatalf("scan should be skipped past the cutoff: %+v", c)
	}
}
