package experiment

import "rmcast/internal/fault"

// ChaosSweep is the robustness evaluation: one fixed topology driven through
// rising fault severity — client crashes (some permanent), link outage
// windows, and Gilbert–Elliott burst loss scaling together — comparing the
// paper's protocols against the hardened RP-RESILIENT engine on delivery
// ratio, mean and p99 recovery latency, and recovery bandwidth.
//
// Severity 0 generates an empty fault schedule, which Run does not install
// at all, so the zero row reproduces the equivalent fault-free cells
// byte-for-byte — the sweep degrades from, rather than replaces, the
// paper's model. Every cell is independently seeded (topology, traffic,
// faults), so any Parallel value yields bit-identical figures; the fault
// seed is shared across protocols within a (severity, replicate) cell so
// all engines face the same crashes and outages.
type ChaosSweep struct {
	// Routers is the fixed backbone size.
	Routers int
	// Severities are the chaos levels in [0, 1]; see chaosParams for how a
	// level maps to crash/outage/burst rates.
	Severities []float64
	// BaseLoss is the flat per-link loss floor every cell keeps (the burst
	// model's good state inherits it).
	BaseLoss float64
	// Protocols to compare; nil means ChaosProtocols.
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

// DefaultChaos returns the chaos sweep used by EXPERIMENTS.md: n=100,
// severity 0…1, 5% base loss.
func DefaultChaos() ChaosSweep {
	return ChaosSweep{
		Routers:    100,
		Severities: []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		BaseLoss:   0.05,
		Packets:    100,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
}

// chaosParams maps one severity level to the fault generator's knobs: at
// severity 1, 30% of clients crash during the run (30% of those for good),
// 20% of links suffer an outage window, and every link runs the harshest
// burst regime.
func chaosParams(severity, baseLoss float64, packets int, interval float64) fault.ChaosParams {
	return fault.ChaosParams{
		CrashRate:     0.3 * severity,
		PermanentFrac: 0.3,
		LinkDownRate:  0.2 * severity,
		BurstSeverity: severity,
		BaseLoss:      baseLoss,
		Span:          float64(packets) * interval,
	}
}

// Run executes the sweep and returns the four robustness figures.
func (c ChaosSweep) Run() (delivery, latency, p99, bandwidth *Figure, err error) {
	g := c.grid()
	if err := g.run(c.Parallel); err != nil {
		return nil, nil, nil, nil, err
	}
	return g.figure("Chaos: delivery ratio vs fault severity", "delivered fraction", "delivery"),
		g.figure("Chaos: mean recovery latency vs fault severity", "latency (ms)", "latency"),
		g.figure("Chaos: p99 recovery latency vs fault severity", "latency (ms)", "p99"),
		g.figure("Chaos: recovery bandwidth vs fault severity", "bandwidth (hops)", "bandwidth"),
		nil
}

// grid lays out the sweep's cells, all on one topology.
func (c ChaosSweep) grid() *grid {
	return newGrid("chaos severity", c.Protocols, ChaosProtocols, c.Severities, "sev=%g", c.Replicates,
		func(row, rep int) RunSpec {
			cp := chaosParams(c.Severities[row], c.BaseLoss, c.Packets, c.Interval)
			return RunSpec{
				Routers:  c.Routers,
				Loss:     c.BaseLoss,
				Packets:  c.Packets,
				Interval: c.Interval,
				// Traffic and fault seeds vary per (severity, replicate) and
				// the fault seed is protocol-independent, so every engine
				// faces the same schedule.
				TopoSeed:  c.BaseSeed,
				SimSeed:   c.BaseSeed + uint64(row)*100 + uint64(rep) + 1,
				Chaos:     &cp,
				FaultSeed: c.BaseSeed + 0xc4a05 + uint64(row)*100 + uint64(rep),
			}
		})
}
