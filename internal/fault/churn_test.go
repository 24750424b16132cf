package fault

import (
	"reflect"
	"strings"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// TestValidateRoles: a schedule that crashes the source is rejected and
// names the role; a crash of any other host, and a nil schedule, pass.
func TestValidateRoles(t *testing.T) {
	src := graph.NodeID(0)
	srcCrash := (&Schedule{}).CrashHost(100, src)
	err := srcCrash.ValidateRoles(src)
	if err == nil {
		t.Fatal("source crash accepted")
	}
	if !strings.Contains(err.Error(), "source") {
		t.Fatalf("source-crash error does not name the role: %v", err)
	}
	bystander := (&Schedule{}).CrashWindow(5, 100, 200).CrashHost(150, 9)
	if err := bystander.ValidateRoles(src); err != nil {
		t.Fatalf("bystander crash rejected: %v", err)
	}
	var nilSched *Schedule
	if err := nilSched.ValidateRoles(src); err != nil {
		t.Fatalf("nil schedule rejected: %v", err)
	}
}

func TestCrashesHost(t *testing.T) {
	s := (&Schedule{}).CrashWindow(3, 100, 200).LinkDown(50, 1)
	if !s.CrashesHost(3) {
		t.Fatal("CrashesHost misses a crashed host")
	}
	if s.CrashesHost(1) {
		t.Fatal("CrashesHost flags a link event's ID as a host crash")
	}
	var nilSched *Schedule
	if nilSched.CrashesHost(3) {
		t.Fatal("nil schedule crashes hosts")
	}
}

// TestGenerateChurnDeterministic: the schedule is a pure function of
// (params, ranked, seed).
func TestGenerateChurnDeterministic(t *testing.T) {
	ranked := []graph.NodeID{4, 9, 2, 7, 11, 3, 8, 6, 10, 5}
	p := ChurnParams{Rate: 0.75, Span: 1000}
	a := GenerateChurn(p, ranked, rng.New(42))
	b := GenerateChurn(p, ranked, rng.New(42))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same inputs, different schedules")
	}
	c := GenerateChurn(p, ranked, rng.New(43))
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed does not influence the schedule")
	}
}

// TestGenerateChurnTargetsSuccession: at full rate the first churnWaves entries
// of the succession line are each hit by a crash wave, wave times ascend
// within [0.15, 0.65]·Span, and rate 0 yields an empty schedule.
func TestGenerateChurnTargetsSuccession(t *testing.T) {
	ranked := []graph.NodeID{4, 9, 2, 7, 11, 3, 8, 6, 10, 5}
	const span = 1000.0
	s := GenerateChurn(ChurnParams{Rate: 1, Span: span}, ranked, rng.New(7))
	crashAt := map[graph.NodeID]float64{}
	for _, ev := range s.Events {
		if ev.Kind == CrashHost {
			if _, dup := crashAt[ev.Node]; !dup {
				crashAt[ev.Node] = ev.At
			}
		}
	}
	prev := 0.0
	for i, c := range ranked[:churnWaves] {
		at, ok := crashAt[c]
		if !ok {
			t.Fatalf("wave %d target %d never crashed", i, c)
		}
		if at < 0.15*span || at > 0.65*span {
			t.Fatalf("wave %d at %g outside [0.15, 0.65]·Span", i, at)
		}
		if at < prev {
			t.Fatalf("wave %d at %g before previous wave %g", i, at, prev)
		}
		prev = at
	}
	if !GenerateChurn(ChurnParams{Rate: 0, Span: span}, ranked, rng.New(7)).Empty() {
		t.Fatal("rate 0 generated faults")
	}
}
