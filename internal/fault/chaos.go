package fault

import (
	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// ChaosParams drives the random schedule generator used by the chaos
// sweeps. All rates are per-run probabilities; all times derive from Span,
// the data-transmission duration of the run. The generated schedule is a
// pure function of the parameters and the rng seed, so chaos sweep cells
// stay bit-identical at any worker count.
type ChaosParams struct {
	// CrashRate is the probability that a given client crashes during the
	// run. Crash times fall in [0.1, 0.7]·Span so the protocols both lose
	// traffic to the crash and get time to recover afterwards. A crashing
	// client stays down for good with probability 0.3 (permanentFrac); the
	// rest come back after a downtime in [0.05, 0.25]·Span.
	CrashRate float64
	// LinkDownRate is the probability that a given link suffers one outage
	// window during the run, lasting [0.02, 0.1]·Span.
	LinkDownRate float64
	// BurstSeverity in [0, 1] scales Gilbert–Elliott burst loss applied to
	// every link: 0 disables bursts entirely (flat Bernoulli loss only);
	// 1 is the harshest regime (frequent bad states losing most packets).
	BurstSeverity float64
	// BaseLoss is the flat per-link loss probability the burst model's good
	// state inherits, so burst cells degrade from — rather than replace —
	// the sweep's configured loss floor.
	BaseLoss float64
	// Span is the data-transmission duration (Packets·Interval), ms.
	Span float64
}

// Validate rejects, naming the field, a rate, severity or base loss outside
// [0, 1] and a negative Span (NaN and infinities included). A Span of 0
// means 1.
func (p ChaosParams) Validate() error {
	return firstBad("chaos params", []field{
		{"CrashRate", p.CrashRate, 0 <= p.CrashRate && p.CrashRate <= 1},
		{"LinkDownRate", p.LinkDownRate, 0 <= p.LinkDownRate && p.LinkDownRate <= 1},
		{"BurstSeverity", p.BurstSeverity, 0 <= p.BurstSeverity && p.BurstSeverity <= 1},
		{"BaseLoss", p.BaseLoss, 0 <= p.BaseLoss && p.BaseLoss <= 1},
		{"Span", p.Span, p.Span >= 0},
	})
}

// BurstFromSeverity maps a severity in [0, 1] and a base loss rate to
// Gilbert–Elliott parameters: the good state keeps the flat base loss, the
// bad state loses 30–70% of crossings, and bad states arrive more often and
// linger longer as severity rises. Severity ≤ 0 returns ok=false (no burst
// chain at all). For a severity and base loss in [0, 1] every parameter
// lies in [0, 1]; Schedule.Validate rejects the chain otherwise.
func BurstFromSeverity(severity, baseLoss float64) (GEParams, bool) {
	if severity <= 0 {
		return GEParams{}, false
	}
	return GEParams{
		PGB:      0.02 * severity,
		PBG:      0.4 - 0.25*severity,
		LossGood: baseLoss,
		LossBad:  0.3 + 0.4*severity,
	}, true
}

// Generate builds a chaos schedule from valid params (Validate) over the
// given clients and links. Every stochastic choice draws from r in a fixed
// order (clients, then links), so the result is deterministic in (params,
// seed). The source is never crashed — the liveness invariant is
// conditioned on the source staying up.
func Generate(p ChaosParams, clients []graph.NodeID, numLinks int, r *rng.Rand) *Schedule {
	s := &Schedule{}
	span := p.Span
	if span == 0 {
		span = 1
	}
	for _, c := range clients {
		if r.Float64() >= p.CrashRate {
			continue
		}
		at := r.Uniform(0.1, 0.7) * span
		if r.Float64() < permanentFrac {
			s.CrashWindow(c, at, at) // to ≤ from: down forever
			continue
		}
		s.CrashWindow(c, at, at+r.Uniform(0.05, 0.25)*span)
	}
	for l := 0; l < numLinks; l++ {
		if r.Float64() >= p.LinkDownRate {
			continue
		}
		at := r.Uniform(0.1, 0.7) * span
		s.LinkDownWindow(graph.EdgeID(l), at, at+r.Uniform(0.02, 0.1)*span)
	}
	if ge, ok := BurstFromSeverity(p.BurstSeverity, p.BaseLoss); ok {
		for l := 0; l < numLinks; l++ {
			s.SetBurst(graph.EdgeID(l), ge)
		}
	}
	return s.Normalize()
}
