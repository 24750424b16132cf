package fault

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// FuzzSchedule drives schedule construction and state compilation with
// arbitrary inputs: whatever the fuzzer supplies, construction must not
// panic, compiled events must be time-sorted, Validate must accept the
// schedule exactly when its times are finite and non-negative and every
// burst probability lies in [0, 1], and NewState and its queries must never
// panic.
func FuzzSchedule(f *testing.F) {
	f.Add(uint64(1), 100.0, 200.0, 0.5, 0.5, 0.1, 0.9, int16(4), int16(3))
	f.Add(uint64(2), -5.0, math.Inf(1), 2.0, -1.0, math.NaN(), 1e300, int16(0), int16(0))
	f.Add(uint64(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int16(1), int16(1))
	f.Add(uint64(4), 10.0, 20.0, 2.0, 0.5, 0.1, math.NaN(), int16(4), int16(3)) // valid times, bad burst
	f.Fuzz(func(t *testing.T, seed uint64, t1, t2, pgb, pbg, lg, lb float64, nodes, links int16) {
		numNodes := int(nodes)%64 + 64 // 64..127, always a valid network
		numLinks := int(links)%64 + 64
		r := rng.New(seed)
		s := &Schedule{}
		// Builder calls with fuzzer-controlled times and entities.
		n1 := graph.NodeID(r.Intn(numNodes))
		n2 := graph.NodeID(r.Intn(numNodes))
		l1 := graph.EdgeID(r.Intn(numLinks))
		s.CrashWindow(n1, t1, t2)
		s.CrashHost(t2, n2)
		s.RecoverHost(t1, n2)
		s.LinkDownWindow(l1, t1, t2)
		ge := GEParams{PGB: pgb, PBG: pbg, LossGood: lg, LossBad: lb}
		s.SetBurst(l1, ge)
		s.Normalize()

		// Events sorted by time (NaN never compares, so skip the order
		// check when one slipped in — Validate rejects it below).
		invalidTime := false
		for _, e := range s.Events {
			if !(e.At >= 0) { // negative or NaN
				invalidTime = true
			}
		}
		if !invalidTime {
			for i := 1; i < len(s.Events); i++ {
				if s.Events[i].At < s.Events[i-1].At {
					t.Fatalf("events unsorted after Normalize: %+v", s.Events)
				}
			}
		}
		// Validate must reject a NaN, negative or infinite time and a burst
		// probability that is NaN or outside [0, 1], and accept the rest.
		inRange := func(v float64) bool { return v >= 0 && v <= 1 }
		valid := !invalidTime && !math.IsInf(t1, 1) && !math.IsInf(t2, 1) &&
			inRange(pgb) && inRange(pbg) && inRange(lg) && inRange(lb)
		if err := s.Validate(numNodes, numLinks); valid != (err == nil) {
			t.Fatalf("Validate = %v for times (%v, %v) and burst %+v", err, t1, t2, ge)
		}
		// State compilation and queries must never panic, whatever the
		// burst probabilities.
		st := NewState(s, r)
		for _, at := range []float64{0, t1, t2, 1e308} {
			if at == at { // skip NaN query times
				st.HostUpAt(n1, at)
				st.LinkUpAt(l1, at)
			}
		}
		for i := 0; i < 32; i++ {
			st.CrossBurst(l1)
		}
		st.HostEvents()
	})
}
