package core

import (
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/route"
)

// This file is the tree-aggregated candidate index behind the near-linear
// batch planner (see planall.go for the planning pass itself).
//
// The scan planner costs O(N) per client because it tests every other client
// for every competitive class. But under the tree metric the within-class
// winner is determined by the class alone: all members of the class at meet
// router r share the tree path u⇝r, so their RTTs from u differ only in the
// r⇝v suffix, and the cheapest member is simply the active client of
// subtree(r) — excluding the branch u hangs under — with the smallest
// DelayFromRoot. That quantity is independent of u, so one bottom-up pass
// can precompute it for every (router, excluded branch) pair: each node
// keeps its best and second-best subtree clients *from distinct child
// branches* (the classic top-two trick), and "best excluding branch b" is
// then an O(1) lookup. A client reads its whole candidate list off its root
// path in O(depth).
//
// Two rankings are maintained:
//
//   - byKey ranks by (DelayFromRoot, peer ID) — the RTT order within a
//     class, used for every ancestor class (and the descendant class when
//     the timeout policy keeps attempt cost strictly increasing in RTT);
//   - byPeer ranks by peer ID alone — used for the degenerate descendant
//     class (meet router == u itself, conditional loss probability 1) under
//     timeout policies that make every attempt cost in the class equal, where
//     the scan's tie-break reduces to the minimum peer ID.
//
// The index also supports incremental membership updates: toggling one
// client re-aggregates only its root path (O(depth · branching) slot
// recomputations, with an early exit once an ancestor's summary is
// unchanged), which is what core.Roster uses under churn.

// aggSelf tags a node's own contribution to its aggregate; child branches
// are tagged with their index in Tree.Children. aggEmpty marks empty slots
// and never matches an exclusion query.
const (
	aggSelf  int32 = -1
	aggEmpty int32 = -2
)

// aggEntry is one contender in a node's top-two table.
type aggEntry struct {
	// key is the client's DelayFromRoot — its RTT rank within any class.
	key float64
	// peer is the client, or graph.None for an empty slot.
	peer graph.NodeID
	// tag identifies the contributing branch (child index, aggSelf, or
	// aggEmpty), so queries can exclude the branch the asking client is in.
	tag int32
}

// lessKey is the byKey ranking: DelayFromRoot, ties by peer ID. Under the
// tree metric this is exactly the scan's "cheapest class member, ties by
// lower peer ID" rule (see planall.go for the precondition discussion).
func lessKey(a, b aggEntry) bool {
	return a.key < b.key || (a.key == b.key && a.peer < b.peer)
}

// treeAgg is the per-node top-two aggregate over an active client set.
type treeAgg struct {
	tree   *mtree.Tree
	active []bool
	// childPos[v] is v's index within Children[Parent[v]] (-1 for the root
	// and off-tree nodes), so root-path walks know which branch to exclude
	// and upward updates know which slot changed.
	childPos []int32
	// byKey[r] / byPeer[r] hold the best and second-best active clients of
	// subtree(r) under the two rankings, guaranteed to come from distinct
	// branches (each branch contributes at most its own best).
	byKey  [][2]aggEntry
	byPeer [][2]aggEntry
}

// newTreeAgg builds the aggregate with every tree client active.
func newTreeAgg(t *mtree.Tree) *treeAgg { return newTreeAggActive(t, nil) }

// newTreeAggActive builds the aggregate over a membership subset given as a
// node-indexed flag slice (nil means every tree client). The subset is
// copied, and building directly from it costs one bottom-up pass — the same
// as the full build — rather than one O(depth) repair per excluded member.
func newTreeAggActive(t *mtree.Tree, active []bool) *treeAgg {
	n := len(t.Depth)
	a := &treeAgg{
		tree:     t,
		active:   make([]bool, n),
		childPos: make([]int32, n),
		byKey:    make([][2]aggEntry, n),
		byPeer:   make([][2]aggEntry, n),
	}
	for i := range a.childPos {
		a.childPos[i] = -1
	}
	for _, kids := range t.Children {
		for i, c := range kids {
			a.childPos[c] = int32(i)
		}
	}
	for _, c := range t.Clients {
		a.active[c] = active == nil || active[c]
	}
	// Order is a preorder, so its reverse visits children before parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		a.recompute(t.Order[i])
	}
	return a
}

// emptyPair is the zero aggregate (both slots empty).
var emptyPair = [2]aggEntry{{peer: graph.None, tag: aggEmpty}, {peer: graph.None, tag: aggEmpty}}

// insertTopTwo inserts e into the top-two pair under less. Each branch
// contributes at most one entry per recompute, so same-tag collisions
// cannot occur.
func insertTopTwo(s *[2]aggEntry, e aggEntry, byPeerOnly bool) {
	var better bool
	if s[0].peer == graph.None {
		better = true
	} else if byPeerOnly {
		better = e.peer < s[0].peer
	} else {
		better = lessKey(e, s[0])
	}
	if better {
		s[1] = s[0]
		s[0] = e
		return
	}
	if s[1].peer == graph.None || (byPeerOnly && e.peer < s[1].peer) || (!byPeerOnly && lessKey(e, s[1])) {
		s[1] = e
	}
}

// recompute rebuilds node r's summaries from its own membership and its
// children's summaries. It reports whether either summary changed, so
// upward propagation can stop early.
func (a *treeAgg) recompute(r graph.NodeID) bool {
	key, peer := emptyPair, emptyPair
	if a.active[r] {
		e := aggEntry{key: a.tree.DelayFromRoot[r], peer: r, tag: aggSelf}
		key[0], peer[0] = e, e
	}
	for i, c := range a.tree.Children[r] {
		if e := a.byKey[c][0]; e.peer != graph.None {
			e.tag = int32(i)
			insertTopTwo(&key, e, false)
		}
		if e := a.byPeer[c][0]; e.peer != graph.None {
			e.tag = int32(i)
			insertTopTwo(&peer, e, true)
		}
	}
	changed := key != a.byKey[r] || peer != a.byPeer[r]
	a.byKey[r] = key
	a.byPeer[r] = peer
	return changed
}

// bestExcluding returns the best entry of a pair whose contributing branch
// is not tag (peer == graph.None when no such client exists). Because the
// two slots come from distinct branches, excluding one branch can only
// shift the answer to the second slot.
func bestExcluding(s *[2]aggEntry, tag int32) aggEntry {
	if s[0].tag != tag {
		return s[0]
	}
	return s[1]
}

// selfWinner returns the winner of client u's descendant class (meet == u:
// the best active client strictly below u) in the given fast mode.
func (a *treeAgg) selfWinner(u graph.NodeID, mode fastMode) aggEntry {
	if mode == fastKeyPeerSelf {
		return bestExcluding(&a.byPeer[u], aggSelf)
	}
	return bestExcluding(&a.byKey[u], aggSelf)
}

// setActive toggles one client's membership and repairs the aggregates
// along its root path, stopping as soon as an ancestor's summary absorbs
// the change.
func (a *treeAgg) setActive(v graph.NodeID, on bool) {
	if a.active[v] == on {
		return
	}
	a.active[v] = on
	for r := v; r != graph.None; r = a.tree.Parent[r] {
		if !a.recompute(r) {
			return
		}
	}
}

// fastMode classifies how batch planning may rank class members.
type fastMode uint8

const (
	// fastOff: scan every peer (the fallback, always correct).
	fastOff fastMode = iota
	// fastKey: every class ranks by (DelayFromRoot, peer).
	fastKey
	// fastKeyPeerSelf: ancestor classes rank by (DelayFromRoot, peer); the
	// descendant class (meet == u) ranks by peer ID alone because its
	// attempt cost is class-constant under the timeout policy.
	fastKeyPeerSelf
)

// computeFastMode decides whether the tree-aggregated path applies. The
// requirements, each of which the scan path does not need:
//
//   - the planner is loss-unaware (LossProb == 0): the loss-aware attempt
//     cost depends on the peer's private depth, so the class winner is not
//     an RTT minimum;
//   - the timeout policy keeps the within-class attempt cost monotone
//     non-decreasing in RTT (FixedTimeout, ProportionalTimeout ≥ 0) — a
//     negative proportional factor could invert the ranking;
//   - the route metric agrees with the tree metric: RTT(u,v) must be the
//     tree-path delay. route.TreeTables guarantees this by construction;
//     Dijkstra tables over the same network qualify when no non-tree link
//     can shortcut a tree path (checked once, one LCA query per link).
//
// Everything else (restricted strategies, any timeout values, hand-built
// topologies) is supported by both paths.
func (p *Planner) computeFastMode() fastMode {
	if p.DisableFastPath || p.LossProb > 0 {
		return fastOff
	}
	var mode fastMode
	switch pol := p.timeout().(type) {
	case FixedTimeout:
		mode = fastKeyPeerSelf
	case ProportionalTimeout:
		switch {
		case pol > 0:
			mode = fastKey
		case pol == 0:
			mode = fastKeyPeerSelf
		default:
			return fastOff
		}
	default:
		return fastOff
	}
	switch rt := p.Routes.(type) {
	case *route.TreeTables:
		if rt.Tree() != p.Tree {
			return fastOff
		}
	case *route.Tables:
		if rt.Network() != p.Tree.Net || !p.treeDominatesGraph() {
			return fastOff
		}
	default:
		return fastOff
	}
	return mode
}

// treeDominatesGraph reports whether every non-tree link is at least as
// long as the tree path between its endpoints. When that holds, any
// shortest path can be rerouted link-by-link onto the tree without growing,
// so the Dijkstra metric equals the tree metric and the aggregate ranking
// is exact. A non-tree link touching an off-tree node fails the check (the
// tree metric is undefined there, so no dominance argument applies).
func (p *Planner) treeDominatesGraph() bool {
	t := p.Tree
	net := t.Net
	onTree := make([]bool, net.NumLinks())
	for _, id := range net.TreeEdges {
		onTree[id] = true
	}
	for id, e := range net.G.Edges() {
		if onTree[id] {
			continue
		}
		if !t.InTree[e.A] || !t.InTree[e.B] {
			return false
		}
		if net.Delay[id] < t.TreeDelay(e.A, e.B) {
			return false
		}
	}
	return true
}
