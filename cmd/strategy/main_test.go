package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestRunStressRejectsBadFlags pins the -stress path's flag handling: a
// topology that cannot be generated, a -beta that is not positive and
// finite (the summary path shares its check), a negative -readers or
// -churnrate and a non-positive -duration come back as errors instead of
// panics or a run without churn.
func TestRunStressRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		routers  int
		beta     float64
		readers  int
		churn    int
		duration time.Duration
	}{
		{"-routers 0", 0, 3, 4, 2000, time.Millisecond},
		{"-routers -5", -5, 3, 4, 2000, time.Millisecond},
		{"-beta NaN", 50, math.NaN(), 4, 2000, time.Millisecond},
		{"-beta +Inf", 50, math.Inf(1), 4, 2000, time.Millisecond},
		{"-beta 0", 50, 0, 4, 2000, time.Millisecond},
		{"-beta -3", 50, -3, 4, 2000, time.Millisecond},
		{"-readers -1", 50, 3, -1, 2000, time.Millisecond},
		{"-churnrate -5", 50, 3, 1, -5, time.Millisecond},
		{"-duration 0", 50, 3, 4, 2000, 0},
	} {
		if err := runStress(io.Discard, tc.routers, 1, tc.beta, true, tc.readers, tc.churn, tc.duration); err == nil {
			t.Errorf("%s: runStress returned no error", tc.name)
		}
	}
	if err := runStress(io.Discard, 50, 1, 3, true, 2, 2000, 20*time.Millisecond); err != nil {
		t.Fatalf("valid flags: %v", err)
	}
}
