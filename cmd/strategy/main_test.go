package main

import (
	"io"
	"testing"
	"time"
)

// TestRunStressRejectsBadFlags pins the -stress path's flag handling: a
// topology that cannot be generated, a negative -readers and a non-positive
// -duration come back as errors instead of panics.
func TestRunStressRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		routers  int
		readers  int
		duration time.Duration
	}{
		{"-routers 0", 0, 4, time.Millisecond},
		{"-routers -5", -5, 4, time.Millisecond},
		{"-readers -1", 50, -1, time.Millisecond},
		{"-duration 0", 50, 4, 0},
	} {
		if err := runStress(io.Discard, tc.routers, 1, 3, true, tc.readers, 2000, tc.duration); err == nil {
			t.Errorf("%s: runStress returned no error", tc.name)
		}
	}
	if err := runStress(io.Discard, 50, 1, 3, true, 2, 2000, 20*time.Millisecond); err != nil {
		t.Fatalf("valid flags: %v", err)
	}
}
