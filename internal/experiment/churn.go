package experiment

import "rmcast/internal/fault"

// ChurnSweep is the mobility-style robustness evaluation: one fixed
// topology driven through rising churn rates, with the crash waves aimed at
// the coordinator succession line (fault.GenerateChurn) — so the
// RP-FAILOVER engine is forced through repeated epoch-fenced re-elections
// while the non-coordinated protocols face the same schedule as ordinary
// client churn. Compared metrics: delivery ratio, mean and p99 recovery
// latency, and the failover count (coordinator claims past bootstrap;
// structurally zero for engines with no coordinator).
//
// Rate 0 generates an empty schedule, which Run does not install at all, so
// the zero row reproduces the equivalent fault-free cells byte-for-byte.
// Every cell is independently seeded, and the fault seed is shared across
// protocols within a (rate, replicate) cell, so all engines face the same
// crash waves and any Parallel value yields bit-identical figures.
type ChurnSweep struct {
	// Routers is the fixed backbone size.
	Routers int
	// Rates are the churn levels in [0, 1]; see fault.ChurnParams.Rate.
	Rates []float64
	// BaseLoss is the flat per-link loss probability of every cell.
	BaseLoss float64
	// Protocols to compare; nil means ChurnProtocols.
	Protocols []string
	Packets   int
	Interval  float64
	// Replicates averages this many (traffic, fault) seeds per cell.
	Replicates int
	BaseSeed   uint64
	// Parallel is the worker count for the sweep grid; <= 1 runs the legacy
	// serial loop (see parallel.go).
	Parallel int
}

// DefaultChurn returns the churn sweep used by EXPERIMENTS.md: n=100,
// rate 0…1, 5% base loss.
func DefaultChurn() ChurnSweep {
	return ChurnSweep{
		Routers:    100,
		Rates:      []float64{0, 0.25, 0.5, 0.75, 1.0},
		BaseLoss:   0.05,
		Packets:    100,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
}

// churnParams maps one churn rate to the generator's knobs.
func churnParams(rate float64, packets int, interval float64) fault.ChurnParams {
	return fault.ChurnParams{
		Rate: rate,
		Span: float64(packets) * interval,
	}
}

// Run executes the sweep and returns the four churn figures.
func (c ChurnSweep) Run() (delivery, latency, p99, failovers *Figure, err error) {
	g := c.grid()
	if err := g.run(c.Parallel); err != nil {
		return nil, nil, nil, nil, err
	}
	return g.figure("Churn: delivery ratio vs churn rate", "delivered fraction", "delivery"),
		g.figure("Churn: mean recovery latency vs churn rate", "latency (ms)", "latency"),
		g.figure("Churn: p99 recovery latency vs churn rate", "latency (ms)", "p99"),
		g.figure("Churn: RP failovers vs churn rate", "failovers per run", "failovers"),
		nil
}

// grid lays out the sweep's cells, all on one topology.
func (c ChurnSweep) grid() *grid {
	return newGrid("churn rate", c.Protocols, ChurnProtocols, c.Rates, "churn=%g", c.Replicates,
		func(row, rep int) RunSpec {
			cp := churnParams(c.Rates[row], c.Packets, c.Interval)
			return RunSpec{
				Routers:  c.Routers,
				Loss:     c.BaseLoss,
				Packets:  c.Packets,
				Interval: c.Interval,
				// Traffic and fault seeds vary per (rate, replicate) and the
				// fault seed is protocol-independent, so every engine faces
				// the same crash waves.
				TopoSeed:  c.BaseSeed,
				SimSeed:   c.BaseSeed + uint64(row)*100 + uint64(rep) + 1,
				Churn:     &cp,
				FaultSeed: c.BaseSeed + 0xcf41 + uint64(row)*100 + uint64(rep),
			}
		})
}
