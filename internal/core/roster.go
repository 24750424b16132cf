package core

import (
	"fmt"
	"slices"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
)

// Roster maintains recovery strategies for a multicast group under
// membership churn. The paper computes strategies once for a static group;
// in a deployment, members come and go, and recomputing every client's
// strategy graph on every change is O(k·N²). A change to member v can only
// affect the clients that have v as a class winner (Lemma 4 admits only
// class winners into optimal lists):
//
//   - a LEAVING member invalidates the clients whose lists contain it as a
//     class winner, and
//   - a JOINING member invalidates the clients for which it beats (or
//     creates) the winner of its own class.
//
// Every other client's strategy is provably unchanged. On tree-metric
// planners (the fast mode of treeagg.go) the roster reads the affected set
// off v's root path in the membership-tracking aggregate and replans each
// affected client in O(depth), so one Join or Leave costs O(depth) plus
// O(depth) per affected client — a Leave+Join pair takes ~15 µs at 2 000
// clients and ~29 µs at 20 000 on a 2-core host (BenchmarkRosterChurn).
// Scan-mode rosters (chorded topologies, loss-aware planning) keep each
// client's class winners, look up the one class a change to v touches by
// its meet depth, and pay O(k) per op plus O(k) per replan. Tests verify
// the incremental results equal full recomputation after arbitrary churn,
// and the affected lists equal an independent winner-rule oracle.
type Roster struct {
	p *Planner
	// active is the dense membership set, indexed by NodeID (the roster's
	// churn unit is a tree client, so node-indexed beats a hash map: O(1)
	// with no hashing, and iteration rides Tree.Clients in canonical order).
	active      []bool
	activeCount int
	// strategies holds the current plan per client, indexed by NodeID like
	// active; nil for inactive clients and non-clients.
	strategies []*Strategy
	// winners[u] is u's current class-winner list in strictly descending
	// DS, one entry per class, so a membership change maps to the affected
	// clients. Scan mode only; fast-mode rosters read winners off the
	// aggregate instead.
	winners [][]Candidate
	// recomputes counts strategy recomputations (observability/testing).
	recomputes int
	// epoch counts successfully applied membership changes since
	// construction. It is the roster's logical clock: two rosters that
	// applied the same churn sequence agree on it, and snapshot publishers
	// stamp it next to their own version so service output is correlatable
	// with plan state.
	epoch uint64
	// agg, when non-nil, is a membership-tracking tree aggregate (see
	// treeagg.go): each replan then reads its candidates off the client's
	// root path in O(depth) instead of scanning every active member, and a
	// join/leave repairs only the O(depth) aggregate nodes above the
	// churned client. nil when the planner configuration requires the scan
	// (see computeFastMode); both paths produce identical strategies.
	agg  *treeAgg
	mode fastMode
	// pre lists the tree's clients in preorder, so the clients of
	// subtree(x) are pre[lo[x]:hi[x]] (fast mode only): the affected
	// clients of one tree branch list without a tree walk.
	pre    []graph.NodeID
	lo, hi []int32
	// sc is the replan scratch (class table, candidate list and solver
	// buffers); buf collects the affected clients of one change.
	sc  planScratch
	buf []graph.NodeID
}

// NewRoster creates a roster over the planner's full client set, all
// initially active.
func NewRoster(p *Planner) *Roster {
	return NewRosterActive(p, p.Tree.Clients)
}

// NewRosterActive creates a roster whose initial membership is the given
// client subset. NewRosterActive(p, p.Tree.Clients) ≡ NewRoster(p); the
// strategy service builds its shadow roster this way, and tests use a fresh
// roster over the current active set as the ground truth the incremental
// churn path must match. Construction is O(k·depth) on
// fast-mode planners (one aggregate build plus one replan per member), not
// O(k·depth) per *excluded* member: the aggregate is built directly from
// the subset rather than by leaving members one at a time. The members are
// planned in one batch pass, so large trees spread them over GOMAXPROCS
// workers like PlanAllDense does; the roster's later replans run on the
// caller's goroutine.
func NewRosterActive(p *Planner, members []graph.NodeID) *Roster {
	n := len(p.Tree.Parent)
	r := &Roster{
		p:          p,
		active:     make([]bool, n),
		strategies: make([]*Strategy, n),
	}
	for _, c := range members {
		if !p.Tree.Net.IsClient(c) {
			panic(fmt.Sprintf("core: roster member %d is not a client", c))
		}
		if r.active[c] {
			continue
		}
		r.active[c] = true
		r.activeCount++
	}
	if r.mode = p.computeFastMode(); r.mode != fastOff {
		r.agg = newTreeAggActive(p.Tree, r.active)
		r.pre, r.lo, r.hi = clientRanges(p.Tree)
	} else {
		r.winners = make([][]Candidate, n)
	}
	// Plan every member in one batch pass, then keep worker 0's scratch for
	// the replans churn triggers.
	dense := make([]*Strategy, len(p.Tree.Clients))
	var scs []planScratch
	p.planBatch(batch{agg: r.agg, mode: r.mode, active: r.active, out: dense, winners: r.winners}, &scs)
	for i, c := range p.Tree.Clients {
		r.strategies[c] = dense[i]
	}
	r.sc = scs[0]
	r.recomputes = r.activeCount
	return r
}

// clientRanges lays the tree's clients out in preorder (Tree.Order), where
// every subtree is contiguous: subtree(x)'s clients are pre[lo[x]:hi[x]].
func clientRanges(t *mtree.Tree) (pre []graph.NodeID, lo, hi []int32) {
	pre = make([]graph.NodeID, 0, len(t.Clients))
	lo, hi = make([]int32, len(t.Depth)), make([]int32, len(t.Depth))
	for _, x := range t.Order {
		lo[x] = int32(len(pre))
		if t.Net.IsClient(x) {
			pre = append(pre, x)
		}
	}
	// Reverse preorder visits children before parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		x := t.Order[i]
		h := lo[x]
		if t.Net.IsClient(x) {
			h++
		}
		for _, c := range t.Children[x] {
			h = max(h, hi[c])
		}
		hi[x] = h
	}
	return pre, lo, hi
}

// Active reports whether a client is currently a group member.
func (r *Roster) Active(c graph.NodeID) bool {
	return int(c) >= 0 && int(c) < len(r.active) && r.active[c]
}

// Strategy returns the current strategy of an active client (nil for
// inactive or unknown nodes).
func (r *Roster) Strategy(c graph.NodeID) *Strategy {
	if !r.Active(c) {
		return nil
	}
	return r.strategies[c]
}

// Recomputes returns the number of per-client strategy recomputations
// performed since construction (including the initial k).
func (r *Roster) Recomputes() int { return r.recomputes }

// replan recomputes one client's strategy through the planner's shared
// pipeline, always into a fresh Strategy (published strategies are
// immutable), and in scan mode refreshes the client's winner list.
func (r *Roster) replan(u graph.NodeID) {
	r.strategies[u] = r.p.plan(u, r.agg, r.mode, r.active, &r.sc, nil)
	if r.agg == nil {
		r.winners[u] = append(r.winners[u][:0], r.sc.cands...)
	}
	r.recomputes++
}

// scanAffected appends to buf the active clients u != v whose class at
// LCA(u, v), looked up by its meet depth, v changes (scan mode): a leaving
// v that is the class's recorded winner, or a joining v that beats the
// recorded winner or opens the class.
func (r *Roster) scanAffected(v graph.NodeID, joining bool) {
	t := r.p.Tree
	for _, u := range t.Clients {
		if u == v || !r.active[u] {
			continue
		}
		meet := t.LCA(u, v)
		w, found := winnerAt(r.winners[u], t.Depth[meet])
		var hit bool
		if joining {
			c := r.p.candidateOf(&r.sc, u, meet, v)
			hit = !found || r.p.beats(u, &c, &w)
		} else {
			hit = found && w.Peer == v
		}
		if hit {
			r.buf = append(r.buf, u)
		}
	}
}

// winnerAt returns the winner of the class at meet depth ds in a
// descending-DS winner list.
func winnerAt(winners []Candidate, ds int32) (Candidate, bool) {
	for _, w := range winners {
		if w.DS <= ds {
			return w, w.DS == ds
		}
	}
	return Candidate{}, false
}

// collectAffected appends to buf the active clients other than v that have
// v as a class winner in the current aggregate. u's class holding v is keyed
// by m = LCA(u, v), a node of v's root path, so one walk up from v finds
// every such u:
//
//   - u below m in a branch other than v's: u's winner at m is
//     bestExcluding(byKey[m], u's branch). If v holds slot 0, every branch
//     but its own sees v; if v holds slot 1, only slot 0's branch does.
//   - u == m, an active client above v: v must win u's descendant class.
//
// v enters a parent's pairs only through slot 0 of its child's, so the
// walk stops at the first m where v holds slot 0 of neither pair.
func (r *Roster) collectAffected(v graph.NodeID) {
	t, a := r.p.Tree, r.agg
	vBranch := aggSelf
	for m := v; m != graph.None; m = t.Parent[m] {
		if m != v && r.active[m] && a.selfWinner(m, r.mode).peer == v {
			r.buf = append(r.buf, m)
		}
		s := &a.byKey[m]
		switch v {
		case s[0].peer:
			for b, c := range t.Children[m] {
				if int32(b) != vBranch {
					r.addActive(c)
				}
			}
		case s[1].peer:
			if b := s[0].tag; b >= 0 {
				r.addActive(t.Children[m][b])
			}
		}
		if s[0].peer != v && a.byPeer[m][0].peer != v {
			return
		}
		vBranch = a.childPos[m]
	}
}

// addActive appends subtree(x)'s active clients to buf.
func (r *Roster) addActive(x graph.NodeID) {
	for _, u := range r.pre[r.lo[x]:r.hi[x]] {
		if r.active[u] {
			r.buf = append(r.buf, u)
		}
	}
}

// replanAffected replans the clients collected in buf in ascending order
// and returns them as a fresh slice (nil when none).
func (r *Roster) replanAffected() []graph.NodeID {
	if len(r.buf) == 0 {
		return nil
	}
	slices.Sort(r.buf)
	for _, u := range r.buf {
		r.replan(u)
	}
	return slices.Clone(r.buf)
}

// Leave removes a member and incrementally repairs the affected strategies.
// It returns the clients whose strategies were recomputed.
func (r *Roster) Leave(v graph.NodeID) ([]graph.NodeID, error) {
	if !r.Active(v) {
		return nil, fmt.Errorf("core: %d is not an active member", v)
	}
	r.buf = r.buf[:0]
	if r.agg != nil {
		// Read v's winner positions before the aggregate forgets v.
		r.collectAffected(v)
		r.agg.setActive(v, false)
	} else {
		r.scanAffected(v, false)
	}
	r.active[v] = false
	r.activeCount--
	r.epoch++
	r.strategies[v] = nil
	return r.replanAffected(), nil
}

// Join (re-)activates a member and incrementally repairs the affected
// strategies: clients for which v beats or creates its class winner, plus
// v itself. It returns the clients whose strategies were recomputed
// (excluding v).
func (r *Roster) Join(v graph.NodeID) ([]graph.NodeID, error) {
	if r.Active(v) {
		return nil, fmt.Errorf("core: %d is already active", v)
	}
	if int(v) < 0 || int(v) >= len(r.active) || !r.p.Tree.Net.IsClient(v) {
		return nil, fmt.Errorf("core: %d is not a client of this tree", v)
	}
	r.active[v] = true
	r.activeCount++
	r.epoch++
	r.buf = r.buf[:0]
	if r.agg != nil {
		r.agg.setActive(v, true)
		r.collectAffected(v)
	} else {
		r.scanAffected(v, true)
	}
	affected := r.replanAffected()
	r.replan(v)
	return affected, nil
}

// StrategiesDense writes the active clients' strategies into a dense slice
// indexed by client position in Tree.Clients — the same canonical layout as
// Planner.PlanAllDense — with nil at inactive positions. out is reused when
// large enough (len ≥ len(Tree.Clients)); nil allocates. Snapshot
// publishers pass a fresh slice per publish so old snapshots stay frozen.
func (r *Roster) StrategiesDense(out []*Strategy) []*Strategy {
	clients := r.p.Tree.Clients
	if len(out) < len(clients) {
		out = make([]*Strategy, len(clients))
	} else {
		out = out[:len(clients)]
	}
	for i, c := range clients {
		out[i] = r.strategies[c]
	}
	return out
}

// OccupancyDense writes the membership flags in the same dense
// client-position layout as StrategiesDense. out is reused when large
// enough; nil allocates.
func (r *Roster) OccupancyDense(out []bool) []bool {
	clients := r.p.Tree.Clients
	if len(out) < len(clients) {
		out = make([]bool, len(clients))
	} else {
		out = out[:len(clients)]
	}
	for i, c := range clients {
		out[i] = r.active[c]
	}
	return out
}

// ActiveCount returns the number of current members.
func (r *Roster) ActiveCount() int { return r.activeCount }

// Epoch returns the number of successfully applied membership changes since
// construction (0 for a fresh roster). Strictly monotonic under churn.
func (r *Roster) Epoch() uint64 { return r.epoch }
