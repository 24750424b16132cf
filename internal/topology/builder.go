package topology

import (
	"fmt"
	"math"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// Builder constructs Networks by hand. It exists for tests, examples, and
// the ghost-node shared-segment modeling of §2.2: scenarios where the random
// generator's topology is the wrong tool because the exact wiring matters.
//
// Links added with TreeLink become part of the multicast tree; Link adds
// off-tree backbone links (available to unicast routing only). Delays given
// to the builder are exact — no U[d,2d] resampling — so expected values in
// tests can be computed by hand.
type Builder struct {
	net *Network
	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{net: &Network{G: graph.New(0), Source: graph.None}}
}

// Router adds a backbone router and returns its ID.
func (b *Builder) Router() graph.NodeID { return b.net.addNode(Router) }

// Source adds the multicast source host. Calling it twice is an error,
// reported by Build.
func (b *Builder) Source() graph.NodeID {
	if b.net.Source != graph.None {
		b.fail("duplicate source")
	}
	id := b.net.addNode(Source)
	b.net.Source = id
	return id
}

// Client adds a group-member host and returns its ID.
func (b *Builder) Client() graph.NodeID {
	id := b.net.addNode(Client)
	b.net.Clients = append(b.net.Clients, id)
	return id
}

// Link adds an off-tree link with the exact given delay (ms).
func (b *Builder) Link(a, c graph.NodeID, delay float64) graph.EdgeID {
	return b.link(a, c, delay)
}

// TreeLink adds a link with the exact given delay and marks it as part of
// the multicast tree.
func (b *Builder) TreeLink(a, c graph.NodeID, delay float64) graph.EdgeID {
	id := b.link(a, c, delay)
	b.net.TreeEdges = append(b.net.TreeEdges, id)
	return id
}

func (b *Builder) link(a, c graph.NodeID, delay float64) graph.EdgeID {
	if !(delay > 0) || math.IsInf(delay, 1) {
		b.fail(fmt.Sprintf("delay %v on link %d-%d is not positive and finite", delay, a, c))
		delay = 1
	}
	id := b.net.G.AddEdge(a, c, delay)
	b.net.Nominal = append(b.net.Nominal, delay)
	b.net.Delay = append(b.net.Delay, delay)
	b.net.Loss = append(b.net.Loss, 0)
	return id
}

// SharedSegment models a shared (broadcast-capable) link joining the given
// members, per the paper's ghost-node construction (§2.2, Figure 2): a
// ghost node is inserted and each member is joined to it by a point-to-point
// link carrying the segment delay. "A shared link acts as a multicast
// capable router making copies of the packet using broadcast capacity.
// Hence the ghost node may be viewed as the shared link itself."
//
// When tree is true the branch links join the multicast tree; the caller
// must ensure this does not close a cycle (Build validates).
// The per-branch loss probability can then be set individually on the
// returned edges to model partial loss on the segment.
func (b *Builder) SharedSegment(members []graph.NodeID, delay float64, tree bool) (graph.NodeID, []graph.EdgeID) {
	if len(members) < 2 {
		b.fail("shared segment needs at least two members")
	}
	ghost := b.net.addNode(Ghost)
	edges := make([]graph.EdgeID, 0, len(members))
	for _, m := range members {
		var id graph.EdgeID
		if tree {
			id = b.TreeLink(ghost, m, delay)
		} else {
			id = b.Link(ghost, m, delay)
		}
		edges = append(edges, id)
	}
	return ghost, edges
}

// SetLoss sets the loss probability of one link.
func (b *Builder) SetLoss(id graph.EdgeID, p float64) {
	if !(0 <= p && p <= 1) {
		b.fail(fmt.Sprintf("loss %v out of [0,1]", p))
		return
	}
	b.net.Loss[id] = p
}

// SetUniformLoss sets every link's loss probability.
func (b *Builder) SetUniformLoss(p float64) {
	for i := range b.net.Loss {
		b.SetLoss(graph.EdgeID(i), p)
	}
}

func (b *Builder) fail(msg string) {
	if b.err == nil {
		b.err = fmt.Errorf("topology builder: %s", msg)
	}
}

// Build finalises and validates the network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.net.Source == graph.None {
		return nil, fmt.Errorf("topology builder: no source")
	}
	if len(b.net.Clients) == 0 {
		return nil, fmt.Errorf("topology builder: no clients")
	}
	if err := b.net.Validate(); err != nil {
		return nil, err
	}
	return b.net, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Network {
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	return net
}

// Chain builds the simplest interesting test topology: S — r1 — r2 — … —
// rHops — C1, with additional clients attached at the given router indices
// (1-based, counted from the source side). Every link has the given delay
// and the multicast tree is the whole chain plus attachments. Used widely
// in unit tests.
func Chain(hops int, delay float64, clientAt []int) (*Network, error) {
	if hops < 1 {
		return nil, fmt.Errorf("topology: chain needs at least one router")
	}
	b := NewBuilder()
	src := b.Source()
	routers := make([]graph.NodeID, hops)
	prev := src
	for i := 0; i < hops; i++ {
		routers[i] = b.Router()
		b.TreeLink(prev, routers[i], delay)
		prev = routers[i]
	}
	tail := b.Client()
	b.TreeLink(routers[hops-1], tail, delay)
	for _, idx := range clientAt {
		if idx < 1 || idx > hops {
			return nil, fmt.Errorf("topology: client index %d out of [1,%d]", idx, hops)
		}
		c := b.Client()
		b.TreeLink(routers[idx-1], c, delay)
	}
	return b.Build()
}

// Star builds a star topology: the source attached to a hub router with n
// clients hanging off it, every link with the given delay. The degenerate
// case where every client is competitive with every other (all meet at the
// hub).
func Star(n int, delay float64) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: star needs at least one client")
	}
	b := NewBuilder()
	src := b.Source()
	hub := b.Router()
	b.TreeLink(src, hub, delay)
	for i := 0; i < n; i++ {
		b.TreeLink(hub, b.Client(), delay)
	}
	return b.Build()
}

// Binary builds a complete binary multicast tree of the given depth with
// clients at every leaf and the source above the root router. All links
// share the given delay.
func Binary(depth int, delay float64) (*Network, error) {
	if depth < 1 {
		return nil, fmt.Errorf("topology: binary tree needs depth >= 1")
	}
	b := NewBuilder()
	src := b.Source()
	root := b.Router()
	b.TreeLink(src, root, delay)
	level := []graph.NodeID{root}
	for d := 1; d < depth; d++ {
		var next []graph.NodeID
		for _, p := range level {
			l, r := b.Router(), b.Router()
			b.TreeLink(p, l, delay)
			b.TreeLink(p, r, delay)
			next = append(next, l, r)
		}
		level = next
	}
	for _, p := range level {
		b.TreeLink(p, b.Client(), delay)
		b.TreeLink(p, b.Client(), delay)
	}
	return b.Build()
}

// Seeded convenience: generate the paper's standard topology for n routers
// with the given loss and seed. Used by benchmarks, examples and the
// experiment harness.
func Standard(routers int, loss float64, seed uint64) (*Network, error) {
	cfg := DefaultConfig(routers)
	cfg.LossProb = loss
	return Generate(cfg, rng.New(seed))
}
