package experiment

import "rmcast/internal/fault"

// AdversarialProtocols are the engines compared by the adversarial sweep:
// the paper's three plus the source-recovery floor, all carrying the
// hardening layer (dedup caches, monotonic guards, malformed-packet
// rejection) this sweep exists to exercise, and the cooperative coded
// engine, whose symbol plane faces its own mutation class
// (fault.ClassSymbol: flipped indices, truncated payloads).
var AdversarialProtocols = []string{"SRM", "RMA", "RP", "SRC", "COOP"}

// MutationSweep is the adversarial robustness evaluation: one fixed topology
// driven through rising message-plane mutation intensity — control-packet
// duplication, reorder jitter, header corruption, and repair-storm
// amplification scaling together (see fault.MutationFromIntensity) — on top
// of a flat base loss, comparing the hardened engines on delivery ratio,
// mean and p99 recovery latency, and recovery bandwidth.
//
// Intensity 0 maps to a nil mutation config, which Run does not install at
// all, so the zero row reproduces the equivalent mutation-free cells
// byte-for-byte. Every cell is independently seeded, so any Parallel value
// yields bit-identical figures. The runtime invariant oracle (internal/check)
// runs strict in every cell: a mutation that tricked an engine into double
// counting, repairing a never-sent packet, or abandoning a gap fails the
// sweep instead of skewing its figures.
type MutationSweep struct {
	// Routers is the fixed backbone size.
	Routers int
	// Intensities are the mutation levels in [0, 1]; see
	// fault.MutationFromIntensity for how a level maps to duplication,
	// reorder, corruption, and storm parameters.
	Intensities []float64
	// BaseLoss is the flat per-link loss probability every cell keeps (the
	// mutator attacks the recovery traffic this loss provokes).
	BaseLoss float64
	// Protocols to compare; nil means AdversarialProtocols.
	Protocols []string
	Packets   int
	Interval  float64
	// Replicates averages this many traffic seeds per cell.
	Replicates int
	BaseSeed   uint64
	// Parallel is the worker count for the sweep grid; <= 1 runs the serial
	// loop (see parallel.go).
	Parallel int
}

// DefaultAdversarial returns the adversarial sweep used by EXPERIMENTS.md:
// n=100, intensity 0…1, 5% base loss.
func DefaultAdversarial() MutationSweep {
	return MutationSweep{
		Routers:     100,
		Intensities: []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		BaseLoss:    0.05,
		Packets:     100,
		Interval:    50,
		Replicates:  1,
		BaseSeed:    2003,
	}
}

// Run executes the sweep and returns the four adversarial figures.
func (m MutationSweep) Run() (delivery, latency, p99, bandwidth *Figure, err error) {
	g := m.grid()
	if err := g.run(m.Parallel); err != nil {
		return nil, nil, nil, nil, err
	}
	return g.figure("Adversarial: delivery ratio vs mutation intensity", "delivered fraction", "delivery"),
		g.figure("Adversarial: mean recovery latency vs mutation intensity", "latency (ms)", "latency"),
		g.figure("Adversarial: p99 recovery latency vs mutation intensity", "latency (ms)", "p99"),
		g.figure("Adversarial: recovery bandwidth vs mutation intensity", "bandwidth (hops)", "bandwidth"),
		nil
}

// grid lays out the sweep's cells, all on one topology.
func (m MutationSweep) grid() *grid {
	span := float64(m.Packets) * m.Interval
	return newGrid("mutation intensity", m.Protocols, AdversarialProtocols, m.Intensities, "mut=%g", m.Replicates,
		func(row, rep int) RunSpec {
			return RunSpec{
				Routers:  m.Routers,
				Loss:     m.BaseLoss,
				Packets:  m.Packets,
				Interval: m.Interval,
				// Traffic seeds vary per (intensity, replicate) so every
				// protocol faces the same stream fates within a cell.
				TopoSeed: m.BaseSeed,
				SimSeed:  m.BaseSeed + uint64(row)*100 + uint64(rep) + 1,
				Mutation: fault.MutationFromIntensity(m.Intensities[row], span),
			}
		})
}
