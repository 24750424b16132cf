package topology

import (
	"fmt"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// Transit-stub generation (Zegura/Calvert/Bhattacharjee's GT-ITM model, the
// third standard topology family in multicast simulation literature next to
// flat-random and Waxman): a small core of interconnected *transit* domains
// of fast long-haul routers, with *stub* domains of local routers hanging
// off transit attachment points. Hosts (and hence multicast clients) end up
// concentrated in stubs, giving the two-level locality structure real
// internetworks have — nearby clients share almost their entire path from
// the source, which is exactly the regime where RP's competitive-class
// pruning matters.

// The hierarchy's shape: transitDomains core domains of transitSize
// routers each, stubsPerTransitNode stub domains of stubSize routers hanging
// off every transit router, transitStubRouters routers in all.
const (
	transitDomains      = 3
	transitSize         = 4
	stubsPerTransitNode = 2
	stubSize            = 5
	transitStubRouters  = transitDomains * transitSize * (1 + stubsPerTransitNode*stubSize)
)

// Nominal delay ranges (ms) of each link class; realised delays still get
// the §5.1 U[d,2d] draw.
var (
	intraTransitDelay = [2]float64{4, 8}
	interTransitDelay = [2]float64{10, 25}
	transitStubDelay  = [2]float64{2, 5}
	intraStubDelay    = [2]float64{1, 3}
)

// GenerateTransitStub builds a transit-stub backbone, then applies the
// standard pipeline: a multicast tree over the whole graph, host
// attachment, delays, and uniform loss. The cfg's Routers field is ignored
// (the hierarchy determines the count); its tree/host/loss fields apply.
func GenerateTransitStub(cfg Config, r *rng.Rand) (*Network, error) {
	cfg.Routers = transitStubRouters
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	net := &Network{G: graph.New(0)}
	for i := 0; i < cfg.Routers; i++ {
		net.addNode(Router)
	}

	// connectDomain wires the given routers as a random connected
	// subgraph with one extra chord when large enough.
	connectDomain := func(nodes []graph.NodeID, delay [2]float64) {
		perm := r.Perm(len(nodes))
		for i := 1; i < len(nodes); i++ {
			a := nodes[perm[i]]
			b := nodes[perm[r.Intn(i)]]
			net.addLink(a, b, r.Uniform(delay[0], delay[1]), r)
		}
		if len(nodes) >= 4 {
			a := nodes[r.Intn(len(nodes))]
			b := nodes[r.Intn(len(nodes))]
			if a != b && !net.G.HasEdgeBetween(a, b) {
				net.addLink(a, b, r.Uniform(delay[0], delay[1]), r)
			}
		}
	}

	// Transit domains.
	transit := make([][]graph.NodeID, transitDomains)
	next := 0
	take := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(next)
			next++
		}
		return out
	}
	for d := range transit {
		transit[d] = take(transitSize)
		connectDomain(transit[d], intraTransitDelay)
	}
	// Inter-transit: ring of domains plus one random chord pair each.
	for d := range transit {
		e := (d + 1) % transitDomains
		if e == d {
			break
		}
		a := transit[d][r.Intn(len(transit[d]))]
		b := transit[e][r.Intn(len(transit[e]))]
		if !net.G.HasEdgeBetween(a, b) {
			net.addLink(a, b, r.Uniform(interTransitDelay[0], interTransitDelay[1]), r)
		}
	}

	// Stub domains per transit router.
	for d := range transit {
		for _, tr := range transit[d] {
			for sdom := 0; sdom < stubsPerTransitNode; sdom++ {
				stub := take(stubSize)
				connectDomain(stub, intraStubDelay)
				gw := stub[r.Intn(len(stub))]
				net.addLink(tr, gw, r.Uniform(transitStubDelay[0], transitStubDelay[1]), r)
			}
		}
	}
	if next != cfg.Routers {
		return nil, fmt.Errorf("topology: transit-stub wired %d of %d routers", next, cfg.Routers)
	}

	// Standard pipeline from here: tree, hosts, loss.
	var rootRouter graph.NodeID
	var leaves []graph.NodeID
	switch cfg.Tree {
	case RandomTree:
		rootRouter, leaves = buildRandomTree(net, cfg, r)
	case ShortestPathTree:
		rootRouter, leaves = buildShortestPathTree(net, cfg, r)
	default:
		return nil, fmt.Errorf("topology: unknown tree kind %d", cfg.Tree)
	}
	attachHosts(net, cfg, rootRouter, leaves, r)
	net.SetUniformLoss(cfg.LossProb)
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(net.Clients) == 0 {
		return nil, fmt.Errorf("topology: transit-stub generation produced zero clients")
	}
	return net, nil
}
