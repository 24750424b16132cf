// Package rmcast is a from-scratch reproduction of "A Recovery Algorithm
// for Reliable Multicasting in Reliable Networks" (Zhang, Ray, Kannan,
// Iyengar — ICPP 2003): the RP recovery-strategy algorithm, the SRM and RMA
// baselines it is evaluated against, and the discrete-event packet-level
// simulator that regenerates the paper's Figures 5–8.
//
// The package is a thin facade over the internal implementation:
//
//   - NewTopology / Chain / Star / Binary build networks (random backbones
//     per the paper's §5.1, or hand-wired ones for experiments).
//   - Strategies runs the paper's Algorithm 1 (§4) for every client and
//     returns the prioritized recovery lists with their expected delays.
//   - Simulate runs one reliable-multicast session under a named recovery
//     protocol and reports latency and bandwidth per recovery.
//   - Figure5And6 / Figure7And8 / Ablation regenerate the evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's claims.
package rmcast

import (
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/experiment"
	"rmcast/internal/graph"
	"rmcast/internal/lsr"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

// NodeID identifies a node in a topology.
type NodeID = graph.NodeID

// Topology is a generated or hand-built network plus its multicast tree.
type Topology = topology.Network

// TopologyConfig parameterises random topology generation (§5.1).
type TopologyConfig = topology.Config

// TopologyBuilder hand-constructs topologies (tests, shared-LAN modeling).
type TopologyBuilder = topology.Builder

// Strategy is one client's prioritized recovery list (the paper's L_u).
type Strategy = core.Strategy

// Candidate is one entry of a recovery list.
type Candidate = core.Candidate

// SessionConfig parameterises one simulation run.
type SessionConfig = protocol.Config

// Result is the outcome of one simulation run.
type Result = protocol.Result

// Figure is one reproduced evaluation figure.
type Figure = experiment.Figure

// TreeKind selects the multicast-tree construction for generated
// topologies.
type TreeKind = topology.TreeKind

// Tree construction kinds (see topology.TreeKind).
const (
	RandomTree       = topology.RandomTree
	ShortestPathTree = topology.ShortestPathTree
)

// DetectionMode selects the loss-detection model of a session.
type DetectionMode = protocol.DetectionMode

// Loss-detection modes (see protocol.DetectionMode).
const (
	DetectIdeal   = protocol.DetectIdeal
	DetectGap     = protocol.DetectGap
	DetectSession = protocol.DetectSession
)

// Router is the routing abstraction consumed by planning and simulation:
// either the omniscient oracle or a converged link-state protocol instance.
// Implementations must be safe for concurrent readers: planning a group of
// more than 2048 clients (RP's attach-time plan in SimulateFull) queries
// RTT from several goroutines at once. LinkStateRouting's Router fills its
// tables lazily and is safe there because a session prepares the source
// and every client before it plans.
type Router = route.Router

// Tracer receives structured simulation events (see package trace).
type Tracer = trace.Tracer

// TraceEvent is one structured simulation event.
type TraceEvent = trace.Event

// LinkStateStats reports the convergence cost of LinkStateRouting.
type LinkStateStats = lsr.Stats

// TimeoutPolicy chooses per-attempt timeouts for planning and recovery.
// Implementations must be safe for concurrent use: planning a group of
// more than 2048 clients (Strategies, NewRoster) calls Timeout from several
// goroutines at once.
type TimeoutPolicy = core.TimeoutPolicy

// FixedTimeout is a constant per-attempt timeout (ms).
type FixedTimeout = core.FixedTimeout

// ProportionalTimeout sets the timeout to a multiple of the attempt's RTT.
type ProportionalTimeout = core.ProportionalTimeout

// DefaultTopologyConfig returns the paper's standard generation parameters
// for m backbone routers.
func DefaultTopologyConfig(m int) TopologyConfig { return topology.DefaultConfig(m) }

// NewTopology generates a random network per cfg, deterministically from
// seed.
func NewTopology(cfg TopologyConfig, seed uint64) (*Topology, error) {
	return topology.Generate(cfg, rng.New(seed))
}

// NewTransitStubTopology generates a GT-ITM-style transit-stub hierarchy
// (fast transit core, stub domains at the edge; 132 routers); cfg's
// tree/host/loss settings apply and its Routers field is ignored.
func NewTransitStubTopology(cfg TopologyConfig, seed uint64) (*Topology, error) {
	return topology.GenerateTransitStub(cfg, rng.New(seed))
}

// NewBuilder returns a hand-construction builder.
func NewBuilder() *TopologyBuilder { return topology.NewBuilder() }

// Chain builds a source—router-chain—client topology (see topology.Chain).
func Chain(hops int, delay float64, clientAt []int) (*Topology, error) {
	return topology.Chain(hops, delay, clientAt)
}

// Star builds a hub topology with n clients.
func Star(n int, delay float64) (*Topology, error) { return topology.Star(n, delay) }

// Binary builds a complete binary multicast tree of the given depth.
func Binary(depth int, delay float64) (*Topology, error) { return topology.Binary(depth, delay) }

// PlannerOptions tunes strategy computation.
type PlannerOptions struct {
	// Timeout is the per-attempt timeout policy; nil means
	// ProportionalTimeout(3), the experiments' default. It must be safe
	// for concurrent use (see TimeoutPolicy).
	Timeout TimeoutPolicy
	// AllowDirectSource permits the u→S edge of the strategy graph
	// (the paper's unrestricted form). The zero value of PlannerOptions
	// therefore computes restricted strategies; use DefaultPlannerOptions
	// for the paper's default.
	AllowDirectSource bool
}

// DefaultPlannerOptions returns the paper-faithful planner settings.
func DefaultPlannerOptions() PlannerOptions {
	return PlannerOptions{AllowDirectSource: true}
}

// Strategies computes the optimal recovery strategy (Algorithm 1) for every
// client of t.
func Strategies(t *Topology, opt PlannerOptions) (map[NodeID]*Strategy, error) {
	p, err := newPlanner(t, opt)
	if err != nil {
		return nil, err
	}
	return p.PlanAll(), nil
}

// Roster maintains per-client strategies under group membership churn,
// recomputing only the provably affected clients on Join/Leave.
type Roster = core.Roster

// NewRoster builds a churn-capable strategy roster over t's full client
// set.
func NewRoster(t *Topology, opt PlannerOptions) (*Roster, error) {
	p, err := newPlanner(t, opt)
	if err != nil {
		return nil, err
	}
	return core.NewRoster(p), nil
}

// StrategyFor computes the optimal recovery strategy for a single client.
// It returns an error when client is not a client node of t.
func StrategyFor(t *Topology, client NodeID, opt PlannerOptions) (*Strategy, error) {
	if client < 0 || int(client) >= t.NumNodes() || !t.IsClient(client) {
		return nil, fmt.Errorf("rmcast: node %d is not a client of the topology", client)
	}
	p, err := newPlanner(t, opt)
	if err != nil {
		return nil, err
	}
	return p.StrategyFor(client), nil
}

// newPlanner builds t's multicast tree and routing tables and a planner over
// them with opt's settings.
func newPlanner(t *Topology, opt PlannerOptions) (*core.Planner, error) {
	tree, err := mtree.Build(t)
	if err != nil {
		return nil, err
	}
	p := core.NewPlanner(tree, route.Build(t))
	p.Timeout = opt.Timeout
	p.AllowDirectSource = opt.AllowDirectSource
	return p, nil
}

// Protocols lists the recovery protocols Simulate accepts.
func Protocols() []string { return experiment.Engines() }

// DefaultSessionConfig returns the experiments' session parameters.
func DefaultSessionConfig() SessionConfig { return protocol.DefaultConfig() }

// Simulate runs one reliable-multicast session over t with the named
// recovery protocol (see Protocols), deterministically from seed.
func Simulate(t *Topology, protocolName string, cfg SessionConfig, seed uint64) (*Result, error) {
	return SimulateFull(t, protocolName, cfg, seed, nil, nil)
}

// SimulateFull is Simulate with an optional routing substrate (nil: the
// omniscient oracle) and an optional event tracer.
func SimulateFull(t *Topology, protocolName string, cfg SessionConfig, seed uint64, router Router, tracer Tracer) (*Result, error) {
	eng, err := experiment.NewEngine(protocolName)
	if err != nil {
		return nil, err
	}
	tree, err := mtree.Build(t)
	if err != nil {
		return nil, err
	}
	s, err := protocol.NewSessionPrebuilt(t, tree, eng, cfg, seed, router)
	if err != nil {
		return nil, err
	}
	s.Trace = tracer
	return s.Run(), nil
}

// LinkStateRouting converges the OSPF-style link-state protocol of
// internal/lsr over t with the given relative HELLO measurement noise and
// returns the resulting Router plus convergence statistics.
func LinkStateRouting(t *Topology, noise float64, seed uint64) (Router, *LinkStateStats) {
	return lsr.Converge(t, lsr.Config{Noise: noise}, rng.New(seed))
}

// Figure5And6 regenerates the paper's group-size sweep (latency and
// bandwidth versus client count at 5% loss). Pass zero-value sweep fields
// to use the paper's parameters.
func Figure5And6() (latency, bandwidth *Figure, err error) {
	return experiment.PaperFigure56().Run()
}

// Figure7And8 regenerates the paper's loss sweep at n=500.
func Figure7And8() (latency, bandwidth *Figure, err error) {
	return experiment.PaperFigure78().Run()
}

// Ablation regenerates the RP-variant ablation (DESIGN.md experiment E7).
func Ablation() (latency, bandwidth *Figure, err error) {
	return experiment.PaperAblation().Run()
}
