package experiment

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// robustnessTableDigests pins what each fault axis prints: an FNV-1a hash of
// its four figures as text tables (Figure.Format), at 40 routers, levels
// {0, 0.5, 1}, 15 packets and 2 replicates. They were captured from the
// separate chaos, churn and mutation sweep types that RobustnessSweep
// replaced, before the merge, so they guard the level-to-fault mapping, the
// seed salts, the row labels and the titles that moved into robustnessAxes.
var robustnessTableDigests = map[string]string{
	"chaos":       "19324f2bdbafb954",
	"churn":       "6fc9f8475e7dc962",
	"adversarial": "1e0ffdb4e68af8d6",
}

func TestRobustnessTablesPinned(t *testing.T) {
	for axis, want := range robustnessTableDigests {
		s := RobustnessSweep{
			Axis:       axis,
			Routers:    40,
			Levels:     []float64{0, 0.5, 1},
			BaseLoss:   0.05,
			Packets:    15,
			Interval:   50,
			Replicates: 2,
			BaseSeed:   2003,
			Parallel:   2,
		}
		delivery, latency, p99, fourth, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", axis, err)
		}
		h := fnv.New64a()
		for _, f := range []*Figure{delivery, latency, p99, fourth} {
			if err := f.Format(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("%s: tables digest %s, want %s", axis, got, want)
		}
	}
}

// TestRobustnessDefaults: each axis's default sweep keeps the levels and
// protocols EXPERIMENTS.md reports, and an unknown axis is an error.
func TestRobustnessDefaults(t *testing.T) {
	for _, tc := range []struct {
		axis      string
		levels    int
		protocols []string
	}{
		{"chaos", 6, ChaosProtocols},
		{"churn", 5, ChurnProtocols},
		{"adversarial", 6, AdversarialProtocols},
	} {
		s := DefaultRobustness(tc.axis)
		if len(s.Levels) != tc.levels || s.Levels[0] != 0 || s.Levels[len(s.Levels)-1] != 1 {
			t.Errorf("%s: default levels %v", tc.axis, s.Levels)
		}
		if s.Routers != 100 || s.BaseLoss != 0.05 || s.Packets != 100 || s.Interval != 50 ||
			s.Replicates != 1 || s.BaseSeed != 2003 {
			t.Errorf("%s: defaults %+v", tc.axis, s)
		}
		if g := s.grid(); fmt.Sprint(g.protocols) != fmt.Sprint(tc.protocols) {
			t.Errorf("%s: compares %v, want %v", tc.axis, g.protocols, tc.protocols)
		}
	}
	s := DefaultRobustness("bogus")
	if _, _, _, _, err := s.Run(); err == nil {
		t.Fatal("unknown axis ran")
	}
}

// TestRobustnessRejectsBadLevel: a level outside [0, 1] is an error on every
// axis, not a fault clamped to level 1 or scaled past the sweep's range.
func TestRobustnessRejectsBadLevel(t *testing.T) {
	for _, axis := range []string{"chaos", "churn", "adversarial"} {
		s := DefaultRobustness(axis)
		s.Routers, s.Packets, s.Levels = 40, 5, []float64{0, 1.5}
		if _, _, _, _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "level 1.5") {
			t.Errorf("%s: Run returned %v, want an error naming level 1.5", axis, err)
		}
	}
}
