// Package experiment is the harness that regenerates the paper's evaluation
// (§5, Figures 5–8) plus the ablation studies listed in DESIGN.md. It owns
// protocol construction by name, single-run execution, multi-seed sweeps,
// and figure formatting, so cmd/figures and the root benchmark suite share
// one code path.
package experiment

import (
	"errors"
	"fmt"
	"math"

	"rmcast/internal/core"
	"rmcast/internal/fault"
	"rmcast/internal/lsr"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/ack"
	"rmcast/internal/protocol/coop"
	"rmcast/internal/protocol/fec"
	"rmcast/internal/protocol/rma"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srcrec"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// Protocols compared in the paper's figures, in presentation order.
var PaperProtocols = []string{"SRM", "RMA", "RP"}

// AblationProtocols are the RP variants and the source-recovery floor used
// by the ablation benchmarks (experiment E7 in DESIGN.md).
var AblationProtocols = []string{"RP", "RP-AWARE", "RP-NOSRC", "RP-NAK", "RP-SUBGROUP", "SRC", "SRM-HONEST", "SRM-ADAPT", "FEC", "ACK"}

// engines is the engine table NewEngine builds from, in listing order. Each
// zero Options is the paper's engine and a variant sets only its own flag;
// every variant backs a figure or an E7 ablation reading (EXPERIMENTS.md).
// Everything else about an engine is a constant of its package.
var engines = []struct {
	name string
	new  func() protocol.Engine
}{
	// Scalable Reliable Multicast baseline.
	{"SRM", srmWith(srm.Options{})},
	// Reliable Multicast Architecture baseline.
	{"RMA", func() protocol.Engine { return rma.New() }},
	// The paper's recovery strategy.
	{"RP", rpWith(rpproto.Options{})},
	// RP planned with the loss-aware model (core/aware.go).
	{"RP-AWARE", rpWith(rpproto.Options{LossAware: true})},
	// RP with the restricted strategy graph (no direct u→S edge).
	{"RP-NOSRC", rpWith(rpproto.Options{Restricted: true})},
	// RP with explicit NAK replies instead of pure timeouts.
	{"RP-NAK", rpWith(rpproto.Options{NakReplies: true})},
	// RP with source subgroup-multicast repairs ([4]).
	{"RP-SUBGROUP", rpWith(rpproto.Options{SubgroupRepair: true})},
	// Pure unicast source recovery (ablation floor).
	{"SRC", func() protocol.Engine { return srcrec.New() }},
	// SRM without the paper's idealised one-flood-per-packet repair cost
	// model (distributed suppression only).
	{"SRM-HONEST", srmWith(srm.Options{Honest: true})},
	// SRM-HONEST plus Floyd-style adaptive timer widening.
	{"SRM-ADAPT", srmWith(srm.Options{Honest: true, Adaptive: true})},
	// Proactive parity baseline (reference [5]): K=8 data + 2 parity per
	// block, local decode, source fallback.
	{"FEC", func() protocol.Engine { return fec.New() }},
	// Sender-initiated positive-ACK baseline (reference [21]); shows the
	// ACK-implosion cost in request hops.
	{"ACK", func() protocol.Engine { return ack.New() }},
	// RP with the crash/churn hardening layer (retry budgets, dead-peer
	// suspicion, roster-driven replanning).
	{"RP-RESILIENT", rpWith(rpproto.Options{Resilient: true})},
	// Coordinated-RP mode with epoch-fenced deterministic re-election and
	// state handover when the RP crashes.
	{"RP-FAILOVER", rpWith(rpproto.Options{Failover: true})},
	// Cooperative coded repair: block-level symbol solicitation from
	// strategy-ranked peers over disjoint coded ranges, decode at rank K,
	// source as bounded last resort.
	{"COOP", func() protocol.Engine { return coop.New() }},
}

func rpWith(opt rpproto.Options) func() protocol.Engine {
	return func() protocol.Engine { return rpproto.New(opt) }
}

func srmWith(opt srm.Options) func() protocol.Engine {
	return func() protocol.Engine { return srm.New(opt) }
}

// Engines lists every name NewEngine accepts, in table order.
func Engines() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

// NewEngine constructs a protocol engine by name (see Engines).
func NewEngine(name string) (protocol.Engine, error) {
	for _, e := range engines {
		if e.name == name {
			return e.new(), nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown protocol %q", name)
}

// RunSpec describes one simulation run.
type RunSpec struct {
	// Routers is the backbone size m (the paper's "number of nodes in the
	// network model").
	Routers int
	// Loss is the uniform per-link loss probability.
	Loss float64
	// Protocol names the engine (see Engines).
	Protocol string
	// Packets and Interval configure the data stream.
	Packets  int
	Interval float64
	// TopoSeed fixes the topology; SimSeed fixes the packet/timer fates.
	// Keeping them separate lets a sweep hold the topology constant
	// across protocols (as the paper does) while varying traffic seeds
	// across replicates.
	TopoSeed, SimSeed uint64
	// Tree selects the multicast-tree construction (default: the paper's
	// uniform random spanning tree).
	Tree topology.TreeKind
	// LinkState, when true, replaces the omniscient routing oracle with
	// the converged link-state protocol of internal/lsr, whose delay
	// estimates carry RouteNoise relative measurement error.
	LinkState  bool
	RouteNoise float64
	// Chaos, when non-nil, generates a fault schedule (host crashes, link
	// outages, burst loss — internal/fault) from FaultSeed and installs it.
	// Zero-rate parameters generate an empty schedule, which is not
	// installed at all, so a zero-chaos cell is byte-identical to the same
	// cell without Chaos.
	Chaos     *fault.ChaosParams
	FaultSeed uint64
	// Churn, when non-nil, generates a mobility-style churn schedule
	// instead: crash waves aimed at the election succession line
	// (core.ElectionOrder) plus background client blackouts, from
	// FaultSeed. Chaos and Churn are mutually exclusive: a spec that sets
	// both is rejected.
	Churn *fault.ChurnParams
	// Mutation, when non-nil and non-empty, installs the adversarial
	// message-plane mutator (duplication, reordering, corruption, repair
	// storms — fault.Mutator) on top of whatever schedule Chaos or Churn
	// generated. A nil or empty config leaves the run byte-identical to one
	// without.
	Mutation *fault.MutationConfig
}

// validate rejects the RunSpec fields that protocol.Config does not see: a
// non-finite or negative RouteNoise, Chaos together with Churn, and bad
// Chaos or Churn parameters (fault.ChaosParams.Validate,
// fault.ChurnParams.Validate), before a schedule is generated from them.
// The Mutation config rides on the schedule, which the session validates.
func (spec RunSpec) validate() error {
	if !(spec.RouteNoise >= 0) || math.IsInf(spec.RouteNoise, 1) {
		return fmt.Errorf("experiment: bad run spec: RouteNoise = %v", spec.RouteNoise)
	}
	switch {
	case spec.Chaos != nil && spec.Churn != nil:
		return errors.New("experiment: bad run spec: Chaos and Churn are both set")
	case spec.Chaos != nil:
		return spec.Chaos.Validate()
	case spec.Churn != nil:
		return spec.Churn.Validate()
	}
	return nil
}

// Run executes one simulation run. Packets and Interval go to
// protocol.Config as they are, whose validation rejects a bad value.
func Run(spec RunSpec) (*protocol.Result, error) {
	return runCell(spec, buildNetwork)
}

// network is what a run takes from the fields that determine it (netKey):
// the topology, its multicast tree and its router. A sweep builds each
// distinct network once and runs every cell that shares it on it: cells
// read it and never write it. Loss is set last and draws no randomness
// (topology.Generate step 5), so nothing here depends on a cell's loss: the
// network is built lossless, and each cell runs on a copy of the topology
// that owns its own Loss slice.
type network struct {
	topo   *topology.Network
	tree   *mtree.Tree
	router route.Router
}

// netKey is the part of a RunSpec that determines its network.
type netKey struct {
	routers    int
	topoSeed   uint64
	tree       topology.TreeKind
	linkState  bool
	routeNoise float64
}

func (spec RunSpec) netKey() netKey {
	return netKey{spec.Routers, spec.TopoSeed, spec.Tree, spec.LinkState, spec.RouteNoise}
}

// buildNetwork generates k's topology without loss and builds its tree and
// its router: route.Build's oracle, or the converged link-state router when
// linkState is set. lsr.Routing fills a destination's table on first use,
// so unlike route.Tables it must not be shared by concurrent cells; no sweep
// sets LinkState.
func buildNetwork(k netKey) (*network, error) {
	tcfg := topology.DefaultConfig(k.routers)
	tcfg.LossProb = 0
	tcfg.Tree = k.tree
	topo, err := topology.Generate(tcfg, rng.New(k.topoSeed))
	if err != nil {
		return nil, err
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		return nil, err
	}
	var router route.Router
	if k.linkState {
		router, _ = lsr.Converge(topo, lsr.Config{Noise: k.routeNoise},
			rng.New(k.topoSeed+0x9e3779b9))
	} else {
		router = route.Build(topo)
	}
	return &network{topo: topo, tree: tree, router: router}, nil
}

// runCell validates spec, takes its network from build and runs spec on it.
// Run builds a fresh network; a sweep's grid hands out its shared one.
func runCell(spec RunSpec, build func(netKey) (*network, error)) (*protocol.Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	net, err := build(spec.netKey())
	if err != nil {
		return nil, err
	}
	if !(0 <= spec.Loss && spec.Loss <= 1) {
		return nil, fmt.Errorf("topology: loss probability %v out of [0,1]", spec.Loss)
	}
	// The cell's own topology: a shallow copy with its own loss. The tree
	// and the router keep the shared topology, so the planner still sees
	// them describe one network (core.Planner's fast-path check).
	topo := *net.topo
	topo.Loss = make([]float64, len(net.topo.Loss))
	topo.SetUniformLoss(spec.Loss)
	eng, err := NewEngine(spec.Protocol)
	if err != nil {
		return nil, err
	}
	cfg := protocol.Config{Packets: spec.Packets, Interval: spec.Interval}
	var sched *fault.Schedule
	switch {
	case spec.Chaos != nil:
		sched = fault.Generate(*spec.Chaos, topo.Clients, len(topo.Loss), rng.New(spec.FaultSeed))
	case spec.Churn != nil:
		// The churn driver aims its crash waves at the deterministic
		// election succession line, which is a pure function of the tree —
		// so the same schedule confronts every protocol on this topology.
		sched = fault.GenerateChurn(*spec.Churn, core.ElectionOrder(net.tree), rng.New(spec.FaultSeed))
	default:
		sched = &fault.Schedule{}
	}
	sched.Mutation = spec.Mutation
	cfg.Fault = sched
	s, err := protocol.NewSessionPrebuilt(&topo, net.tree, eng, cfg, spec.SimSeed, net.router)
	if err != nil {
		return nil, err
	}
	res := s.Run()
	if err := Check(res); err != nil {
		return res, fmt.Errorf("experiment: run %+v %w", spec, err)
	}
	return res, nil
}

// Check is the failed-run rule: a run failed if it hit the event cap, left
// a loss unrecovered, or violated an invariant of the oracle.
func Check(res *protocol.Result) error {
	switch {
	case !res.Complete:
		return errors.New("hit the event cap")
	case res.Stats.Unrecovered > 0:
		return fmt.Errorf("left %d losses unrecovered", res.Stats.Unrecovered)
	case len(res.Violations) > 0:
		return fmt.Errorf("violated %d invariants: %s", len(res.Violations), res.Violations[0])
	}
	return nil
}

// Point is one measured (protocol, x) cell of a figure.
type Point struct {
	Latency   float64 // mean recovery latency, ms
	Bandwidth float64 // recovery hops per packet recovered
	Delivery  float64 // fraction of (client, packet) pairs delivered
	P99       float64 // p99 recovery latency, ms
	Failovers float64 // mean coordinator claims past bootstrap per run
	Losses    int64
	Clients   int
	// LatSamples and BwSamples hold the per-replicate values (confidence
	// intervals across traffic seeds); DelSamples and P99Samples likewise
	// for the chaos metrics, FoSamples for the churn failover counts.
	LatSamples []float64
	BwSamples  []float64
	DelSamples []float64
	P99Samples []float64
	FoSamples  []float64
}

// merge folds another replicate into the point with equal weight by loss
// count (per-recovery means combine weighted by recovery counts; loss
// counts are near-identical across protocols on the same topology/seed).
// Delivery and P99 merge by replicate count: every replicate covers the
// same (client, packet) population, and p99s of equal-size samples average.
func (p *Point) merge(o Point) {
	np, no := len(p.DelSamples), len(o.DelSamples)
	if np+no > 0 {
		p.Delivery = (p.Delivery*float64(np) + o.Delivery*float64(no)) / float64(np+no)
		p.P99 = (p.P99*float64(np) + o.P99*float64(no)) / float64(np+no)
		p.Failovers = (p.Failovers*float64(np) + o.Failovers*float64(no)) / float64(np+no)
	}
	tot := p.Losses + o.Losses
	if tot == 0 {
		return
	}
	wp := float64(p.Losses) / float64(tot)
	wo := float64(o.Losses) / float64(tot)
	p.Latency = p.Latency*wp + o.Latency*wo
	p.Bandwidth = p.Bandwidth*wp + o.Bandwidth*wo
	p.Losses = tot
	if o.Clients > p.Clients {
		p.Clients = o.Clients
	}
	p.LatSamples = append(p.LatSamples, o.LatSamples...)
	p.BwSamples = append(p.BwSamples, o.BwSamples...)
	p.DelSamples = append(p.DelSamples, o.DelSamples...)
	p.P99Samples = append(p.P99Samples, o.P99Samples...)
	p.FoSamples = append(p.FoSamples, o.FoSamples...)
}

// Row is one x-position of a figure with a point per protocol.
type Row struct {
	// X is the independent variable: client count (Figures 5/6) or loss
	// percentage (Figures 7/8).
	X float64
	// Label annotates the row (e.g. "n=500").
	Label string
	// Points maps protocol name → measurement.
	Points map[string]Point
}

// Figure is a reproduced paper figure: rows of per-protocol measurements.
type Figure struct {
	Name      string
	XLabel    string
	YLabel    string
	Metric    string // "latency", "bandwidth", "delivery", "p99", or "failovers"
	Protocols []string
	Rows      []Row
}

// Value extracts this figure's metric from a point.
func (f *Figure) Value(p Point) float64 {
	switch f.Metric {
	case "bandwidth":
		return p.Bandwidth
	case "delivery":
		return p.Delivery
	case "p99":
		return p.P99
	case "failovers":
		return p.Failovers
	}
	return p.Latency
}
