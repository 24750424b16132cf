package fault

import (
	"math"
	"strings"
	"testing"

	"rmcast/internal/rng"
)

// TestMutationConfigValidate: every value the mutator would not honour as
// given is an error naming its class and field, whatever else the config
// holds (a config mutating nothing included); the range limits themselves
// and MaxDup 0 (the default, 3) are valid.
func TestMutationConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		cfg   MutationConfig
	}{
		{"Request.DupProb = NaN", MutationConfig{Request: MutationParams{DupProb: nan}}},
		{"Request.DupProb = -1", MutationConfig{Request: MutationParams{DupProb: -1}}},
		{"Request.DupProb = 2", MutationConfig{Request: MutationParams{DupProb: 2}}},
		{"Request.MaxDup = -3", MutationConfig{Request: MutationParams{DupProb: 0.5, MaxDup: -3}}},
		{"Request.MaxDup = 99", MutationConfig{Request: MutationParams{DupProb: 0.5, MaxDup: 99}}},
		{"Repair.ReorderProb = -1", MutationConfig{Repair: MutationParams{ReorderProb: -1}}},
		{"Repair.ReorderProb = +Inf", MutationConfig{Repair: MutationParams{ReorderProb: inf}}},
		{"Repair.MaxDelay = NaN", MutationConfig{Repair: MutationParams{MaxDelay: nan}}},
		{"Repair.MaxDelay = -5", MutationConfig{Repair: MutationParams{ReorderProb: 0.5, MaxDelay: -5}}},
		{"Symbol.MaxDelay = 1e+12", MutationConfig{Symbol: MutationParams{ReorderProb: 0.5, MaxDelay: 1e12}}},
		{"Symbol.CorruptProb = 1", MutationConfig{Symbol: MutationParams{CorruptProb: 1}}},
		{"Symbol.CorruptProb = -Inf", MutationConfig{Symbol: MutationParams{CorruptProb: -inf}}},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Validate returned %v, want an error naming %s", tc.cfg, err, tc.field)
		}
		s := (&Schedule{}).SetMutation(&tc.cfg)
		if err := s.Validate(1, 1); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: Schedule.Validate returned %v, want an error naming %s", tc.cfg, err, tc.field)
		}
	}
	edge := MutationParams{DupProb: 1, MaxDup: maxDupCap, ReorderProb: 1,
		MaxDelay: maxMutationDelay, CorruptProb: maxCorruptProb}
	for _, cfg := range []*MutationConfig{
		nil,
		{},
		{Request: edge, Repair: edge, Symbol: edge},
		{Request: MutationParams{DupProb: 0.3}}, // MaxDup 0: the default
		{Storms: []StormWindow{{From: 0, To: 100, Extra: 99}}},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
	m := newMutator(&MutationConfig{Request: MutationParams{DupProb: 0.3}}, rng.New(1))
	if got := m.classes[ClassRequest].MaxDup; got != maxDupDefault {
		t.Fatalf("MaxDup 0 compiled to %d, want the default %d", got, maxDupDefault)
	}
}

func TestMutationConfigEmpty(t *testing.T) {
	var nilCfg *MutationConfig
	if !nilCfg.Empty() {
		t.Fatal("nil config not empty")
	}
	if !(&MutationConfig{}).Empty() {
		t.Fatal("zero config not empty")
	}
	// An inert storm window (Extra 0, inverted, or NaN bounds) keeps the
	// config empty; an active one does not.
	inert := &MutationConfig{Storms: []StormWindow{
		{From: 0, To: 100, Extra: 0},
		{From: 100, To: 0, Extra: 5},
		{From: math.NaN(), To: 100, Extra: 5},
	}}
	if !inert.Empty() {
		t.Fatal("inert storms made config non-empty")
	}
	live := &MutationConfig{Storms: []StormWindow{{From: 0, To: 100, Extra: 1}}}
	if live.Empty() {
		t.Fatal("active storm window reported empty")
	}
	if (&MutationConfig{Request: MutationParams{DupProb: 0.1}}).Empty() {
		t.Fatal("request duplication reported empty")
	}
}

func TestMutationFromIntensity(t *testing.T) {
	if MutationFromIntensity(0, 5000) != nil {
		t.Fatal("intensity 0 must map to nil (the legacy plane)")
	}
	if MutationFromIntensity(-1, 5000) != nil || MutationFromIntensity(math.NaN(), 5000) != nil {
		t.Fatal("invalid intensity must map to nil")
	}
	c := MutationFromIntensity(1, 5000)
	if c == nil || c.Empty() {
		t.Fatal("intensity 1 mapped to an empty config")
	}
	if c.Request.DupProb != 0.3 || c.Request.ReorderProb != 0.4 ||
		c.Request.MaxDelay != 25 || c.Request.CorruptProb != 0.12 {
		t.Fatalf("intensity-1 params %+v", c.Request)
	}
	if len(c.Storms) != 1 || c.Storms[0].From != 0.35*5000 || c.Storms[0].To != 0.45*5000 {
		t.Fatalf("storm window %+v, want middle tenth of span", c.Storms)
	}
	if c.Storms[0].Extra != 3 {
		t.Fatalf("storm extra %d, want 3", c.Storms[0].Extra)
	}
	// An intensity above 1 is not reshaped: 7 scales the rates out of
	// range, and Validate says so.
	if err := MutationFromIntensity(7, 5000).Validate(); err == nil {
		t.Fatal("intensity 7 gave a valid config")
	}
}

// TestMutatorDeterminism: two mutators built from the same config and seed
// produce identical sample streams; a different seed diverges.
func TestMutatorDeterminism(t *testing.T) {
	cfg := MutationFromIntensity(0.8, 1000)
	sample := func(seed uint64) []Mutation {
		m := newMutator(cfg, rng.New(seed))
		var out []Mutation
		for i := 0; i < 200; i++ {
			class := ClassRequest
			if i%2 == 1 {
				class = ClassRepair
			}
			var mu Mutation
			m.Sample(class, float64(i)*10, &mu)
			cp := mu
			cp.Copies = append([]float64(nil), mu.Copies...)
			out = append(out, cp)
		}
		return out
	}
	a, b := sample(7), sample(7)
	for i := range a {
		if a[i].Delay != b[i].Delay || a[i].Corrupt != b[i].Corrupt ||
			len(a[i].Copies) != len(b[i].Copies) {
			t.Fatalf("sample %d diverged under the same seed: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Copies {
			if a[i].Copies[j] != b[i].Copies[j] {
				t.Fatalf("sample %d copy %d diverged: %v vs %v", i, j, a[i].Copies[j], b[i].Copies[j])
			}
		}
	}
	c := sample(8)
	same := true
	for i := range a {
		if a[i].Delay != c[i].Delay || a[i].Corrupt != c[i].Corrupt ||
			len(a[i].Copies) != len(c[i].Copies) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sample streams")
	}
}

// TestMutatorStormWindow: inside the window every repair gains at least
// Extra copies; requests never do; outside the window a duplication-free
// config adds nothing.
func TestMutatorStormWindow(t *testing.T) {
	cfg := &MutationConfig{Storms: []StormWindow{{From: 100, To: 200, Extra: 4}}}
	m := newMutator(cfg, rng.New(1))
	var mu Mutation
	if !m.Active(ClassRepair) {
		t.Fatal("storm config left repairs inactive")
	}
	if m.Active(ClassRequest) {
		t.Fatal("storm config activated requests (storms amplify repairs only)")
	}
	if !m.Sample(ClassRepair, 150, &mu) || len(mu.Copies) != 4 {
		t.Fatalf("in-window repair got %d copies, want 4", len(mu.Copies))
	}
	if m.Sample(ClassRepair, 250, &mu) || len(mu.Copies) != 0 {
		t.Fatalf("out-of-window repair mutated: %+v", mu)
	}
	if m.Sample(ClassRepair, 200, &mu) {
		t.Fatal("window upper bound must be exclusive")
	}

	// Extra clamps to the hard cap.
	big := newMutator(&MutationConfig{Storms: []StormWindow{{From: 0, To: 1, Extra: 1000}}}, rng.New(1))
	big.Sample(ClassRepair, 0.5, &mu)
	if len(mu.Copies) != maxStormExtra {
		t.Fatalf("storm extra not capped: %d copies, want %d", len(mu.Copies), maxStormExtra)
	}
}

// TestMutatorCorruptionModes: request corruption draws all three modes;
// repair corruption only ever flips header fields (payloads are never
// inspected, so garbage there would be vacuous).
func TestMutatorCorruptionModes(t *testing.T) {
	cfg := &MutationConfig{
		Request: MutationParams{CorruptProb: maxCorruptProb},
		Repair:  MutationParams{CorruptProb: maxCorruptProb},
	}
	m := newMutator(cfg, rng.New(3))
	var mu Mutation
	reqModes := map[CorruptMode]bool{}
	misses := 0
	for i := 0; i < 200; i++ {
		m.Sample(ClassRequest, 0, &mu)
		if mu.Corrupt == CorruptNone {
			misses++ // CorruptProb 0.9: ~10% stay clean
		} else {
			reqModes[mu.Corrupt] = true
		}
		m.Sample(ClassRepair, 0, &mu)
		if mu.Corrupt == CorruptPayload {
			t.Fatal("repair corruption produced a payload mode")
		}
	}
	if len(reqModes) != 3 {
		t.Fatalf("request corruption drew %d modes, want all 3", len(reqModes))
	}
	if misses == 0 || misses > 60 {
		t.Fatalf("%d/200 clean samples under the 0.9 cap, want roughly 20", misses)
	}
}

// TestScheduleMutationPlumbing: a schedule that carries only a mutation
// config is non-empty, and compiling it yields a state with a mutator; an
// empty config yields none (and so never splits the rng stream).
func TestScheduleMutationPlumbing(t *testing.T) {
	s := (&Schedule{}).SetMutation(&MutationConfig{Request: MutationParams{DupProb: 0.5}})
	if s.Empty() {
		t.Fatal("schedule with live mutation config reported empty")
	}
	if st := NewState(s, rng.New(1)); st.Mutator() == nil {
		t.Fatal("state compiled without a mutator")
	}
	empty := (&Schedule{}).SetMutation(&MutationConfig{})
	if !empty.Empty() {
		t.Fatal("schedule with empty mutation config reported non-empty")
	}
	if st := NewState(empty, rng.New(1)); st.Mutator() != nil {
		t.Fatal("empty mutation config compiled a mutator")
	}
}
