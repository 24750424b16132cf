package fault

import (
	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// ChurnParams drives the mobility-style churn generator used by the churn
// axis of experiment.RobustnessSweep: instead of the chaos generator's
// uniform crash lottery, churn aims its crash waves at the *coordinator
// succession line* — the ranked election order of core.ElectionOrder — so a
// failover-capable protocol is forced through repeated RP re-elections,
// the scenario Baddi & El Kettani's mobile-IPv6 RP re-selection frames.
// Background blackouts model ordinary member mobility. The generated schedule is a pure
// function of (params, ranked, seed), so sweep cells stay bit-identical at
// any worker count, and the same schedule can be handed to protocols with no
// failover notion (for them, wave targets are just well-placed clients).
type ChurnParams struct {
	// Rate in [0, 1] scales the whole generator: wave count and background
	// blackout probability both grow linearly with it. At Rate 1 four waves
	// hit the line (30% of their targets for good) and every other client
	// blacks out once with probability 0.15, for [0.05, 0.15]·Span. Rate 0
	// generates an empty schedule.
	Rate float64
	// Span is the data-transmission duration (Packets·Interval), ms; a Span
	// of 0 means 1.
	Span float64
}

// The churn generator's shape at Rate 1.
const (
	// churnWaves is the coordinator-kill wave count: wave i crashes
	// ranked[i], i.e. the RP the i-th election is expected to seat.
	churnWaves = 4
	// backgroundRate is the per-client probability of one mobility
	// blackout window during the run.
	backgroundRate = 0.15
	// downtimeFrac scales blackout lengths: each downtime draws from
	// [0.5, 1.5]·downtimeFrac·Span.
	downtimeFrac = 0.1
)

// permanentFrac is the fraction of crashes, chaos and churn alike, whose
// host never recovers; the rest come back (churn's wave targets must then
// be re-admitted as regular peers).
const permanentFrac = 0.3

// Validate rejects, naming the field, a Rate outside [0, 1] and a negative
// Span (NaN and infinities included).
func (p ChurnParams) Validate() error {
	return firstBad("churn params", []field{
		{"Rate", p.Rate, 0 <= p.Rate && p.Rate <= 1},
		{"Span", p.Span, p.Span >= 0},
	})
}

// GenerateChurn builds a mobility-style churn schedule from valid params
// (Validate). ranked is the coordinator succession line
// (core.ElectionOrder): wave i crashes ranked[i], with wave times spread in
// ascending order across [0.15, 0.65]·Span so each re-election has traffic
// to recover before the next wave hits its successor. Clients not consumed
// by a wave may suffer one background blackout each. Every stochastic choice draws from r in a
// fixed order (waves first, then the remaining clients in ranked order), so
// the schedule is deterministic in (params, ranked, seed).
func GenerateChurn(p ChurnParams, ranked []graph.NodeID, r *rng.Rand) *Schedule {
	s := &Schedule{}
	if p.Rate == 0 {
		return s
	}
	span := p.Span
	if span == 0 {
		span = 1
	}
	waves := int(churnWaves*p.Rate + 0.5)
	if waves > len(ranked) {
		waves = len(ranked)
	}
	for i := 0; i < waves; i++ {
		// Ascending, jittered wave instants: the i-th wave lands in the i-th
		// sub-interval of [0.15, 0.65]·Span.
		lo := 0.15 + 0.5*float64(i)/float64(waves)
		hi := 0.15 + 0.5*float64(i+1)/float64(waves)
		at := r.Uniform(lo, hi) * span
		down := r.Uniform(0.5, 1.5) * downtimeFrac * span
		if r.Float64() < permanentFrac {
			s.CrashWindow(ranked[i], at, at) // to ≤ from: down forever
			continue
		}
		s.CrashWindow(ranked[i], at, at+down)
	}
	for _, c := range ranked[waves:] {
		if r.Float64() >= backgroundRate*p.Rate {
			continue
		}
		at := r.Uniform(0.1, 0.7) * span
		s.CrashWindow(c, at, at+r.Uniform(0.5, 1.5)*downtimeFrac*span)
	}
	return s.Normalize()
}
