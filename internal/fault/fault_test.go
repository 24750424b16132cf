package fault

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

func TestWindowsQueries(t *testing.T) {
	s := (&Schedule{}).
		CrashWindow(3, 100, 200).
		CrashWindow(3, 500, 600).
		CrashWindow(7, 50, 50). // permanent
		LinkDownWindow(2, 10, 20)
	st := NewState(s, rng.New(1))

	cases := []struct {
		node graph.NodeID
		at   float64
		up   bool
	}{
		{3, 99.9, true}, {3, 100, false}, {3, 150, false}, {3, 200, true},
		{3, 550, false}, {3, 700, true},
		{7, 49, true}, {7, 50, false}, {7, 1e9, false},
		{1, 0, true}, {1, 1e9, true}, // untouched host
	}
	for _, c := range cases {
		if got := st.HostUpAt(c.node, c.at); got != c.up {
			t.Errorf("HostUpAt(%d, %v) = %v, want %v", c.node, c.at, got, c.up)
		}
	}
	if st.LinkUpAt(2, 15) || !st.LinkUpAt(2, 25) || !st.LinkUpAt(0, 15) {
		t.Error("link window queries wrong")
	}
	if !st.HostEverFaulty(3) || st.HostEverFaulty(1) {
		t.Error("HostEverFaulty wrong")
	}
}

func TestRedundantTransitionsCollapse(t *testing.T) {
	// Crash-while-down and recover-while-up must not duplicate hooks or
	// corrupt windows.
	s := &Schedule{}
	s.CrashHost(10, 1)
	s.CrashHost(15, 1) // redundant
	s.RecoverHost(20, 1)
	s.RecoverHost(25, 1) // redundant
	st := NewState(s, rng.New(1))
	ev := st.HostEvents()
	want := []Event{
		{At: 10, Kind: CrashHost, Node: 1},
		{At: 20, Kind: RecoverHost, Node: 1},
	}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("HostEvents = %+v, want %+v", ev, want)
	}
	if !st.HostUpAt(1, 22) || st.HostUpAt(1, 17) {
		t.Fatal("collapsed windows query wrong")
	}
}

func TestHostEventsSorted(t *testing.T) {
	s := &Schedule{}
	s.CrashWindow(5, 300, 400)
	s.CrashWindow(2, 100, 100) // permanent: no recover event
	s.CrashWindow(9, 100, 150)
	st := NewState(s, rng.New(1))
	ev := st.HostEvents()
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("events out of order: %+v", ev)
		}
	}
	for _, e := range ev {
		if e.Node == 2 && e.Kind == RecoverHost {
			t.Fatal("permanent crash produced a recover event")
		}
	}
}

func TestEmptyScheduleInjectsNothing(t *testing.T) {
	for _, st := range []*State{NewState(nil, rng.New(1)), NewState(&Schedule{}, rng.New(1))} {
		if !st.HostUpAt(0, 1e6) || !st.LinkUpAt(0, 1e6) {
			t.Fatal("empty state reports downtime")
		}
		if _, ok := st.CrossBurst(0); ok {
			t.Fatal("empty state has a burst chain")
		}
		if st.HostEvents() != nil {
			t.Fatal("empty state has host events")
		}
	}
	if !(&Schedule{}).Empty() || !(*Schedule)(nil).Empty() {
		t.Fatal("Empty() wrong for empty schedules")
	}
	if (&Schedule{Events: []Event{{At: 1, Kind: CrashHost}}}).Empty() {
		t.Fatal("Empty() wrong for non-empty schedule")
	}
}

func TestGEChainsAreBursty(t *testing.T) {
	// An extreme chain (always lose in bad, never in good) must produce
	// runs of losses, and the long-run loss rate must sit near the chain's
	// stationary bad-state probability PGB/(PGB+PBG).
	s := (&Schedule{}).SetBurst(0, GEParams{PGB: 0.1, PBG: 0.3, LossGood: 0, LossBad: 1})
	st := NewState(s, rng.New(42))
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if l, ok := st.CrossBurst(0); !ok {
			t.Fatal("chain missing")
		} else if l {
			lost++
		}
	}
	rate := float64(lost) / n
	stationary := 0.1 / (0.1 + 0.3)
	if math.Abs(rate-stationary) > 0.02 {
		t.Fatalf("loss rate %.4f far from stationary %.4f", rate, stationary)
	}
}

func TestGEDeterministic(t *testing.T) {
	mk := func() []bool {
		s := (&Schedule{}).SetBurst(1, GEParams{PGB: 0.2, PBG: 0.4, LossGood: 0.05, LossBad: 0.8})
		st := NewState(s, rng.New(7))
		out := make([]bool, 500)
		for i := range out {
			out[i], _ = st.CrossBurst(1)
		}
		return out
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("identical seeds produced different burst fates")
	}
}

// TestValidateBurst: a burst probability that is NaN or outside [0, 1] is a
// Validate error naming the link and the field, and SetBurst keeps what it
// is given.
func TestValidateBurst(t *testing.T) {
	ok := GEParams{PGB: 0.1, PBG: 0.3, LossGood: 0.05, LossBad: 0.6}
	for _, tc := range []struct {
		field string
		set   func(*GEParams, float64)
	}{
		{"PGB", func(p *GEParams, v float64) { p.PGB = v }},
		{"PBG", func(p *GEParams, v float64) { p.PBG = v }},
		{"LossGood", func(p *GEParams, v float64) { p.LossGood = v }},
		{"LossBad", func(p *GEParams, v float64) { p.LossBad = v }},
	} {
		for _, v := range []float64{math.NaN(), -1, 1.5, 99, math.Inf(1)} {
			p := ok
			tc.set(&p, v)
			s := (&Schedule{}).SetBurst(0, ok).SetBurst(2, p)
			if fmt.Sprint(s.Burst[2]) != fmt.Sprint(p) { // NaN != NaN
				t.Fatalf("SetBurst stored %+v, want %+v", s.Burst[2], p)
			}
			err := s.Validate(4, 3)
			if err == nil || !strings.Contains(err.Error(), "link 2") || !strings.Contains(err.Error(), tc.field+" = ") {
				t.Errorf("%s = %v: error %v, want one naming link 2 and %s", tc.field, v, err, tc.field)
			}
		}
		for _, v := range []float64{0, 1} {
			p := ok
			tc.set(&p, v)
			if err := (&Schedule{}).SetBurst(1, p).Validate(4, 3); err != nil {
				t.Errorf("%s = %v rejected: %v", tc.field, v, err)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	ok := (&Schedule{}).CrashWindow(2, 10, 20).LinkDownWindow(1, 5, 6)
	if err := ok.Validate(4, 3); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []*Schedule{
		(&Schedule{}).CrashHost(-1, 0),
		(&Schedule{}).CrashHost(math.NaN(), 0),
		(&Schedule{}).CrashHost(math.Inf(1), 0),
		(&Schedule{}).CrashHost(1, 99),
		(&Schedule{}).LinkDown(1, 99),
		{Events: []Event{{At: 1, Kind: EventKind(250)}}},
	}
	for i, s := range bad {
		if err := s.Validate(4, 3); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	clients := []graph.NodeID{2, 3, 5, 8, 13}
	p := ChaosParams{
		CrashRate: 0.8, LinkDownRate: 0.5,
		BurstSeverity: 0.7, BaseLoss: 0.05, Span: 5000,
	}
	a := Generate(p, clients, 10, rng.New(99))
	b := Generate(p, clients, 10, rng.New(99))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic in its seed")
	}
	if err := a.Validate(20, 10); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("generated events not sorted")
		}
	}
	// Severity 0 must not attach burst chains.
	p.BurstSeverity = 0
	if c := Generate(p, clients, 10, rng.New(99)); len(c.Burst) != 0 {
		t.Fatal("severity 0 attached burst chains")
	}
}
