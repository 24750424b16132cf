package topology

import (
	"fmt"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// TreeConfig parameterises the tree-only generator used by the large-n
// scaling tier: a random recursive tree backbone with client hosts attached
// uniformly at random, and no chord links at all. Every link is a tree
// link, so the unicast metric coincides with the tree metric and batch
// planning runs on the near-linear aggregated path (see internal/core).
// Random recursive trees have expected depth Θ(log m), matching the shallow
// wide trees of real multicast deployments.
type TreeConfig struct {
	// Clients is the number of client hosts n.
	Clients int
	// ClientsPerRouter sets the backbone size: m = max(2, n/ClientsPerRouter)
	// routers. Default 4.
	ClientsPerRouter int
	// DelayMin/DelayMax bound the nominal backbone link delay (ms), drawn
	// uniformly; the realised delay is then a draw from [d, 2d] as
	// everywhere else (§5.1).
	DelayMin, DelayMax float64
	// AccessDelay is the nominal delay of host access links.
	AccessDelay float64
	// LossProb is the uniform per-link loss probability.
	LossProb float64
}

// DefaultTreeConfig returns the scaling tier's configuration for n clients:
// n/4 routers, backbone delays U[1,10) ms, 1 ms access links, 5% loss.
func DefaultTreeConfig(clients int) TreeConfig {
	return TreeConfig{
		Clients:          clients,
		ClientsPerRouter: 4,
		DelayMin:         1,
		DelayMax:         10,
		AccessDelay:      1,
		LossProb:         0.05,
	}
}

// GenerateTree builds a tree-only Network from cfg using the deterministic
// stream r: a random recursive tree over the routers (router i attaches to
// a uniform earlier router), the source host on router 0 (the tree root),
// and each client host on a uniform router. The whole link set is the
// multicast tree. Node IDs follow creation order — routers, the source,
// then the clients — and the link created with node id is link id−1.
func GenerateTree(cfg TreeConfig, r *rng.Rand) (*Network, error) {
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("topology: need at least 1 client, got %d", cfg.Clients)
	}
	if cfg.ClientsPerRouter < 1 {
		return nil, fmt.Errorf("topology: clients per router %d below 1", cfg.ClientsPerRouter)
	}
	if !(cfg.DelayMin > 0 && cfg.DelayMax >= cfg.DelayMin) {
		return nil, fmt.Errorf("topology: bad delay range [%v,%v]", cfg.DelayMin, cfg.DelayMax)
	}
	if !(cfg.AccessDelay > 0) {
		return nil, fmt.Errorf("topology: non-positive access delay %v", cfg.AccessDelay)
	}
	if !(0 <= cfg.LossProb && cfg.LossProb <= 1) {
		return nil, fmt.Errorf("topology: loss probability %v out of [0,1]", cfg.LossProb)
	}

	m := max(2, cfg.Clients/cfg.ClientsPerRouter)
	total := m + 1 + cfg.Clients
	net := &Network{
		G:         graph.New(0),
		Kind:      make([]NodeKind, 0, total),
		Nominal:   make([]float64, 0, total-1),
		Delay:     make([]float64, 0, total-1),
		Loss:      make([]float64, 0, total-1),
		TreeEdges: make([]graph.EdgeID, 0, total-1),
		Clients:   make([]graph.NodeID, 0, cfg.Clients),
	}
	// attach adds one node on a link to node to; the draw order per link is
	// the nominal delay (when drawn), then the realised delay.
	attach := func(kind NodeKind, to graph.NodeID, nominal float64) graph.NodeID {
		id := net.addNode(kind)
		net.TreeEdges = append(net.TreeEdges, net.addLink(id, to, nominal, r))
		return id
	}
	net.addNode(Router)
	// Random recursive tree backbone: router i attaches to a uniform earlier
	// router. Draws per router: attachment, nominal delay, realised delay.
	for i := 1; i < m; i++ {
		to := graph.NodeID(r.Intn(i))
		attach(Router, to, r.Uniform(cfg.DelayMin, cfg.DelayMax))
	}
	// Source host at the backbone root, then client hosts on uniform
	// routers (per client: attachment, realised delay).
	net.Source = attach(Source, 0, cfg.AccessDelay)
	for i := 0; i < cfg.Clients; i++ {
		net.Clients = append(net.Clients, attach(Client, graph.NodeID(r.Intn(m)), cfg.AccessDelay))
	}
	net.SetUniformLoss(cfg.LossProb)
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// MustGenerateTree is GenerateTree that panics on error.
func MustGenerateTree(cfg TreeConfig, r *rng.Rand) *Network {
	net, err := GenerateTree(cfg, r)
	if err != nil {
		panic(err)
	}
	return net
}
