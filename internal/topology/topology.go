// Package topology models the physical network of the paper (§2.1, §5.1):
// a backbone of multicast-capable routers connected by point-to-point links,
// with the multicast source and the clients attached as hosts, and a
// multicast tree chosen as a random spanning subtree of the backbone.
//
// Per-link attributes follow §5.1 exactly: every link i has a nominal
// ("typical") delay d(i), and the delay actually used by the simulation is a
// single uniform draw from [d(i), 2d(i)]. Loss probability is an independent
// per-link Bernoulli parameter, uniform across the network in the paper's
// experiments but stored per link here so shared-segment (ghost node, §2.2)
// and heterogeneous-loss scenarios can be expressed.
package topology

import (
	"fmt"
	"math"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// NodeKind classifies the nodes of a Network.
type NodeKind uint8

const (
	// Router is a multicast-capable backbone router. Routers forward but do
	// not buffer data packets (paper §2.2), so they never answer recovery
	// requests.
	Router NodeKind = iota
	// Source is the multicast source host (the root of the tree).
	Source
	// Client is a group-member host (a leaf of the multicast tree).
	Client
	// Ghost is a synthetic node standing in for a shared (broadcast) link,
	// per the paper's ghost-node transform (§2.2, Figure 2).
	Ghost
)

// String returns a short human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case Router:
		return "router"
	case Source:
		return "source"
	case Client:
		return "client"
	case Ghost:
		return "ghost"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Network is a generated physical topology plus the chosen multicast tree.
type Network struct {
	// G holds nodes (routers, hosts, ghosts) and undirected links.
	G *graph.Undirected
	// Kind classifies each node; indexed by NodeID.
	Kind []NodeKind
	// Nominal is the per-link "typical" delay d(i) in milliseconds.
	Nominal []float64
	// Delay is the per-link delay used by routing and simulation: one draw
	// from U[d(i), 2d(i)] (§5.1). Indexed by EdgeID.
	Delay []float64
	// Loss is the per-link, per-packet loss probability. Indexed by EdgeID.
	Loss []float64
	// Source is the multicast source node.
	Source graph.NodeID
	// Clients lists the group-member nodes, ascending by NodeID.
	Clients []graph.NodeID
	// TreeEdges is the multicast tree: a subset of G's edges spanning the
	// source, every client, and the routers between them.
	TreeEdges []graph.EdgeID
}

// NumNodes returns the node count of the underlying graph.
func (n *Network) NumNodes() int { return n.G.NumNodes() }

// NumLinks returns the link count of the underlying graph.
func (n *Network) NumLinks() int { return n.G.NumEdges() }

// IsClient reports whether id is a group member.
func (n *Network) IsClient(id graph.NodeID) bool { return n.Kind[id] == Client }

// DelayWeights returns a graph.WeightFunc reading the per-link delay, for
// use with Dijkstra-based routing (§3.1: "the routing table will give an
// estimate of one-way delay").
func (n *Network) DelayWeights() graph.WeightFunc {
	return func(id graph.EdgeID) float64 { return n.Delay[id] }
}

// SetUniformLoss sets every link's loss probability to p.
func (n *Network) SetUniformLoss(p float64) {
	if !(0 <= p && p <= 1) {
		panic(fmt.Sprintf("topology: loss probability %v out of [0,1]", p))
	}
	for i := range n.Loss {
		n.Loss[i] = p
	}
}

// addLink appends a link with nominal delay d, sampling its realised delay
// from U[d, 2d] using r, and returns its EdgeID.
func (n *Network) addLink(a, b graph.NodeID, d float64, r *rng.Rand) graph.EdgeID {
	realised := r.Uniform(d, 2*d)
	id := n.G.AddEdge(a, b, realised)
	n.Nominal = append(n.Nominal, d)
	n.Delay = append(n.Delay, realised)
	n.Loss = append(n.Loss, 0)
	return id
}

// addNode appends a node of the given kind and returns its ID.
func (n *Network) addNode(k NodeKind) graph.NodeID {
	id := n.G.AddNode()
	n.Kind = append(n.Kind, k)
	return id
}

// Validate checks the structural invariants of a Network and returns a
// descriptive error for the first violation found. It is cheap enough to
// run after every generation and in tests.
func (n *Network) Validate() error {
	if len(n.Kind) != n.G.NumNodes() {
		return fmt.Errorf("topology: %d kinds for %d nodes", len(n.Kind), n.G.NumNodes())
	}
	if len(n.Nominal) != n.G.NumEdges() || len(n.Delay) != n.G.NumEdges() || len(n.Loss) != n.G.NumEdges() {
		return fmt.Errorf("topology: link attribute length mismatch")
	}
	// Every path's delay is at most the sum of all link delays, so a finite
	// sum keeps every arrival time finite.
	var sum float64
	for i := range n.Delay {
		if math.IsInf(n.Delay[i], 0) {
			return fmt.Errorf("topology: link %d delay %v is not finite", i, n.Delay[i])
		}
		if !(n.Nominal[i] <= n.Delay[i] && n.Delay[i] <= 2*n.Nominal[i]) {
			return fmt.Errorf("topology: link %d delay %v outside [d,2d]=[%v,%v]",
				i, n.Delay[i], n.Nominal[i], 2*n.Nominal[i])
		}
		sum += n.Delay[i]
		if !(0 <= n.Loss[i] && n.Loss[i] <= 1) {
			return fmt.Errorf("topology: link %d loss %v outside [0,1]", i, n.Loss[i])
		}
	}
	if math.IsInf(sum, 1) {
		return fmt.Errorf("topology: link delays sum to %v", sum)
	}
	if n.Source < 0 || int(n.Source) >= n.G.NumNodes() || n.Kind[n.Source] != Source {
		return fmt.Errorf("topology: bad source node %d", n.Source)
	}
	for _, c := range n.Clients {
		if n.Kind[c] != Client {
			return fmt.Errorf("topology: node %d listed as client but has kind %v", c, n.Kind[c])
		}
	}
	if !graph.Connected(n.G) {
		return fmt.Errorf("topology: graph is disconnected")
	}
	// The tree edge set must be acyclic and must connect source and clients.
	uf := graph.NewUnionFind(n.G.NumNodes())
	for _, id := range n.TreeEdges {
		e := n.G.Edge(id)
		if !uf.Union(int32(e.A), int32(e.B)) {
			return fmt.Errorf("topology: tree edge %d closes a cycle", id)
		}
	}
	root := uf.Find(int32(n.Source))
	for _, c := range n.Clients {
		if uf.Find(int32(c)) != root {
			return fmt.Errorf("topology: client %d not connected to source by the tree", c)
		}
	}
	return nil
}
