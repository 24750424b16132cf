package experiment

import (
	"fmt"
	"slices"

	"rmcast/internal/fault"
)

// ChaosProtocols are the engines compared by the chaos sweep: the paper's
// three, the hardened RP, and the cooperative coded engine.
var ChaosProtocols = []string{"SRM", "RMA", "RP", "RP-RESILIENT", "COOP"}

// ChurnProtocols are the engines compared by the churn sweep: the flooding
// baseline, plain RP, the hardened RP, and the coordinated failover mode
// whose RP the churn driver deliberately kills.
var ChurnProtocols = []string{"SRM", "RP", "RP-RESILIENT", "RP-FAILOVER"}

// AdversarialProtocols are the engines compared by the adversarial sweep:
// the paper's three plus the source-recovery floor, all carrying the
// hardening layer (dedup caches, monotonic guards, malformed-packet
// rejection) this sweep exists to exercise, and the cooperative coded
// engine, whose symbol plane faces its own mutation class
// (fault.ClassSymbol: flipped indices, truncated payloads).
var AdversarialProtocols = []string{"SRM", "RMA", "RP", "SRC", "COOP"}

// RobustnessSweep is the robustness evaluation: one fixed topology driven
// through rising fault levels on one fault axis (robustnessAxes), on top of
// a flat base loss, comparing the paper's engines with the hardened ones on
// delivery ratio, mean and p99 recovery latency, and one metric of the
// axis's own.
//
// Level 0 generates an empty fault, which Run does not install at all, so
// the zero row reproduces the equivalent fault-free cells byte-for-byte:
// the sweep degrades from, rather than replaces, the paper's model. Every
// cell is independently seeded (topology, traffic, faults), so any Parallel
// value yields bit-identical figures, and the fault seed is shared across
// protocols within a (level, replicate) cell, so all engines face the same
// faults. The strict invariant oracle runs in every cell: a fault that
// tricks an engine into double counting, repairing a never-sent packet or
// abandoning a gap fails the sweep instead of skewing its figures.
type RobustnessSweep struct {
	// Axis names what rises from row to row: "chaos", "churn" or
	// "adversarial" (see robustnessAxes).
	Axis string
	// Routers is the fixed backbone size.
	Routers int
	// Levels are the fault levels in [0, 1], one row each; the axis maps a
	// level to its fault. Run rejects a level outside [0, 1].
	Levels []float64
	// BaseLoss is the flat per-link loss probability every cell keeps.
	BaseLoss float64
	// Protocols to compare; nil means the axis's defaults.
	Protocols []string
	Packets   int
	Interval  float64
	// Replicates averages this many (traffic, fault) seeds per cell.
	Replicates int
	BaseSeed   uint64
	// Parallel is the worker count for the sweep grid; <= 1 runs the serial
	// loop (see parallel.go).
	Parallel int
}

// figureSpec names one figure of a sweep and the metric it shows.
type figureSpec struct{ name, ylabel, metric string }

// robustnessAxis is one fault axis: what the chaos, churn and adversarial
// sweeps do not share.
type robustnessAxis struct {
	name   string
	xlabel string
	// format labels a row by its level (e.g. "sev=%g").
	format string
	// protocols are compared when RobustnessSweep.Protocols is nil; levels
	// are DefaultRobustness's rows.
	protocols []string
	levels    []float64
	// fault sets a cell's fault at level. spec carries the cell's loss,
	// packets and interval; seed is BaseSeed + 100·row + replicate, which
	// an axis that draws a fault schedule salts into its FaultSeed.
	fault   func(spec *RunSpec, level float64, seed uint64)
	figures [4]figureSpec
}

// robustnessAxes is the fault-axis table RobustnessSweep reads its axis
// from.
var robustnessAxes = []robustnessAxis{
	{
		// Client crashes (some permanent), link outage windows and
		// Gilbert–Elliott burst loss rising together.
		name: "chaos", xlabel: "chaos severity", format: "sev=%g",
		protocols: ChaosProtocols,
		levels:    []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		fault: func(spec *RunSpec, level float64, seed uint64) {
			cp := chaosParams(level, spec.Loss, spec.Packets, spec.Interval)
			spec.Chaos, spec.FaultSeed = &cp, seed+0xc4a05
		},
		figures: [4]figureSpec{
			{"Chaos: delivery ratio vs fault severity", "delivered fraction", "delivery"},
			{"Chaos: mean recovery latency vs fault severity", "latency (ms)", "latency"},
			{"Chaos: p99 recovery latency vs fault severity", "latency (ms)", "p99"},
			{"Chaos: recovery bandwidth vs fault severity", "bandwidth (hops)", "bandwidth"},
		},
	},
	{
		// Crash waves aimed at the coordinator succession line
		// (fault.GenerateChurn), so RP-FAILOVER is forced through repeated
		// epoch-fenced re-elections while the engines with no coordinator
		// face the same schedule as ordinary client churn. The failover
		// count is structurally zero for them.
		name: "churn", xlabel: "churn rate", format: "churn=%g",
		protocols: ChurnProtocols,
		levels:    []float64{0, 0.25, 0.5, 0.75, 1.0},
		fault: func(spec *RunSpec, level float64, seed uint64) {
			cp := churnParams(level, spec.Packets, spec.Interval)
			spec.Churn, spec.FaultSeed = &cp, seed+0xcf41
		},
		figures: [4]figureSpec{
			{"Churn: delivery ratio vs churn rate", "delivered fraction", "delivery"},
			{"Churn: mean recovery latency vs churn rate", "latency (ms)", "latency"},
			{"Churn: p99 recovery latency vs churn rate", "latency (ms)", "p99"},
			{"Churn: RP failovers vs churn rate", "failovers per run", "failovers"},
		},
	},
	{
		// Control-packet duplication, reorder jitter, header corruption and
		// repair-storm amplification rising together
		// (fault.MutationFromIntensity); the mutator attacks the recovery
		// traffic the base loss provokes, and draws no fault seed.
		name: "adversarial", xlabel: "mutation intensity", format: "mut=%g",
		protocols: AdversarialProtocols,
		levels:    []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		fault: func(spec *RunSpec, level float64, _ uint64) {
			spec.Mutation = fault.MutationFromIntensity(level, float64(spec.Packets)*spec.Interval)
		},
		figures: [4]figureSpec{
			{"Adversarial: delivery ratio vs mutation intensity", "delivered fraction", "delivery"},
			{"Adversarial: mean recovery latency vs mutation intensity", "latency (ms)", "latency"},
			{"Adversarial: p99 recovery latency vs mutation intensity", "latency (ms)", "p99"},
			{"Adversarial: recovery bandwidth vs mutation intensity", "bandwidth (hops)", "bandwidth"},
		},
	},
}

// findAxis returns the named row of robustnessAxes, or nil.
func findAxis(name string) *robustnessAxis {
	for i := range robustnessAxes {
		if robustnessAxes[i].name == name {
			return &robustnessAxes[i]
		}
	}
	return nil
}

// DefaultRobustness returns the sweep EXPERIMENTS.md runs on the named axis:
// n=100, the axis's levels, 5% base loss. An unknown axis gives a sweep
// whose Run fails.
func DefaultRobustness(axis string) RobustnessSweep {
	s := RobustnessSweep{
		Axis:       axis,
		Routers:    100,
		BaseLoss:   0.05,
		Packets:    100,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
	if a := findAxis(axis); a != nil {
		s.Levels = slices.Clone(a.levels)
	}
	return s
}

// chaosParams maps one severity level to the fault generator's knobs: at
// severity 1, 30% of clients crash during the run (30% of those for good),
// 20% of links suffer an outage window, and every link runs the harshest
// burst regime.
func chaosParams(severity, baseLoss float64, packets int, interval float64) fault.ChaosParams {
	return fault.ChaosParams{
		CrashRate:     0.3 * severity,
		LinkDownRate:  0.2 * severity,
		BurstSeverity: severity,
		BaseLoss:      baseLoss,
		Span:          float64(packets) * interval,
	}
}

// churnParams maps one churn rate to the generator's knobs.
func churnParams(rate float64, packets int, interval float64) fault.ChurnParams {
	return fault.ChurnParams{
		Rate: rate,
		Span: float64(packets) * interval,
	}
}

// Run executes the sweep and returns its four figures: delivery ratio, mean
// and p99 recovery latency, and the axis's own metric (recovery bandwidth
// for chaos and adversarial, failovers for churn).
func (s RobustnessSweep) Run() (delivery, latency, p99, fourth *Figure, err error) {
	a := findAxis(s.Axis)
	if a == nil {
		return nil, nil, nil, nil, fmt.Errorf("experiment: unknown robustness axis %q", s.Axis)
	}
	for _, l := range s.Levels {
		if !(0 <= l && l <= 1) { // NaN fails too
			return nil, nil, nil, nil, fmt.Errorf("experiment: bad robustness sweep: level %v outside [0, 1]", l)
		}
	}
	g := s.grid()
	if err := g.run(s.Parallel); err != nil {
		return nil, nil, nil, nil, err
	}
	var figs [4]*Figure
	for i, f := range a.figures {
		figs[i] = g.figure(f.name, f.ylabel, f.metric)
	}
	return figs[0], figs[1], figs[2], figs[3], nil
}

// grid lays out the sweep's cells, all on one topology; the axis must
// exist. Traffic and fault seeds vary per (level, replicate).
func (s RobustnessSweep) grid() *grid {
	a := findAxis(s.Axis)
	return newGrid(a.xlabel, s.Protocols, a.protocols, s.Levels, a.format, s.Replicates,
		func(row, rep int) RunSpec {
			seed := s.BaseSeed + uint64(row)*100 + uint64(rep)
			spec := RunSpec{
				Routers:  s.Routers,
				Loss:     s.BaseLoss,
				Packets:  s.Packets,
				Interval: s.Interval,
				TopoSeed: s.BaseSeed,
				SimSeed:  seed + 1,
			}
			a.fault(&spec, s.Levels[row], seed)
			return spec
		})
}
