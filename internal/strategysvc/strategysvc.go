// Package strategysvc serves recovery strategies as a concurrent
// read-mostly service — the shape a real RP control plane would embed.
//
// The paper's Algorithm-1 planner and the churn-tracking core.Roster are
// single-threaded by design: Join/Leave mutate shared state and every caller
// replans inline. This package puts them behind the same memory model that
// route.Tables uses for routing state: versioned immutable snapshots behind
// one atomic pointer.
//
//   - Readers (Get, Snapshot) are lock-free, wait-free and allocation-free:
//     one atomic pointer load, then plain reads of frozen data. Any number
//     of goroutines can query concurrently with churn being applied; no
//     reader ever blocks, retries, or observes a torn strategy, because a
//     snapshot is never mutated after its pointer is published.
//   - A single applier goroutine owns the shadow state (a core.Roster). It
//     coalesces queued Join/Leave churn into batches and applies each op
//     via the roster's incremental repair: O(depth) per op plus O(depth)
//     per affected client on tree-metric planners (~4 µs per op at 2 000
//     clients on a 2-core host), O(k) per op on chorded topologies. Then it
//     publishes a fresh snapshot — one O(k) dense copy per batch, not per
//     op. Snapshot versions are strictly monotonic (+1 per publish); the
//     roster epoch (applied-op count) is stamped alongside so service
//     output is correlatable with plan state. Tests pin published
//     snapshots equal to a from-scratch core.NewRosterActive over the same
//     membership after randomized churn.
//
// Publishing shares what is provably frozen: *core.Strategy values are
// immutable once built (Roster.replan always constructs new ones), so
// consecutive snapshots share the strategy structs of unaffected clients
// and copy only the dense pointer slice and occupancy flags.
package strategysvc

import (
	"sync"
	"sync/atomic"

	"rmcast/internal/core"
	"rmcast/internal/graph"
)

// Snapshot is one immutable, versioned view of the group's recovery plans.
// All accessors are safe for unsynchronised concurrent use; nothing in a
// published snapshot is ever written again.
type Snapshot struct {
	// Version is the publish sequence number, strictly monotonic across
	// snapshots of one service (the initial snapshot is Version 1).
	Version uint64
	// Epoch is the shadow roster's applied-churn count at publish time
	// (0 for the initial snapshot). Several queued ops may collapse into
	// one publish, so Epoch can advance by more than one per Version.
	Epoch uint64
	// strategies is the dense plan slice in canonical client order (client
	// position in Tree.Clients, the PlanAllDense layout); nil at inactive
	// positions.
	strategies []*core.Strategy
	// active is the roster occupancy in the same layout.
	active      []bool
	activeCount int
	// pos maps NodeID → dense position (-1 for non-clients). Shared by all
	// snapshots of a service; built once, never written after.
	pos []int32
	// clients is Tree.Clients, shared and frozen like pos.
	clients []graph.NodeID
}

// Get returns the client's current strategy, or nil if the node is not a
// client of the tree or not an active member. Lock-free and
// allocation-free.
func (s *Snapshot) Get(c graph.NodeID) *core.Strategy {
	if c < 0 || int(c) >= len(s.pos) {
		return nil
	}
	i := s.pos[c]
	if i < 0 {
		return nil
	}
	return s.strategies[i]
}

// Active reports whether the node was a group member at publish time.
func (s *Snapshot) Active(c graph.NodeID) bool {
	if c < 0 || int(c) >= len(s.pos) {
		return false
	}
	i := s.pos[c]
	return i >= 0 && s.active[i]
}

// ActiveCount returns the member count at publish time.
func (s *Snapshot) ActiveCount() int { return s.activeCount }

// Strategies returns the dense strategy slice in canonical client order
// (nil at inactive positions). The slice is part of the immutable snapshot:
// callers must not modify it.
func (s *Snapshot) Strategies() []*core.Strategy { return s.strategies }

// Clients returns the canonical client order the dense slices are indexed
// by (Tree.Clients; shared and frozen).
func (s *Snapshot) Clients() []graph.NodeID { return s.clients }

// The applier's shape. A service starts with every tree client a member.
const (
	// batchCap caps how many queued churn ops one publish coalesces. Larger
	// batches amortise the O(k) publish copy; smaller ones bound snapshot
	// staleness.
	batchCap = 4096
	// queueCap is the churn queue capacity. Join/Leave block when the queue
	// is full — backpressure, never drops.
	queueCap = 4096
)

// Config holds no setting: the service's shape is the constants above.
//
// Deprecated: New ignores it. It stays while the benchmark harness
// (bench/svc.go) passes it.
type Config struct{}

// Stats is a point-in-time counter snapshot of the applier side.
type Stats struct {
	// Published counts snapshot publishes (== current Version − 1).
	Published uint64
	// Batches counts applied churn batches (== Published: a batch with no
	// effective op publishes nothing and is not counted).
	Batches uint64
	// Applied and Rejected count individual churn ops: Applied advanced
	// the roster; Rejected were invalid at apply time (join of an active
	// member, leave of an inactive one).
	Applied  uint64
	Rejected uint64
	// MaxBatch is the largest effective batch applied so far.
	MaxBatch uint64
}

// MeanBatch returns the mean effective batch size (0 before any publish).
func (st Stats) MeanBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.Applied) / float64(st.Batches)
}

type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opFlush
)

type op struct {
	kind opKind
	node graph.NodeID
	// ack is closed by the applier once every op queued before this flush
	// op has been applied and published (opFlush only).
	ack chan struct{}
}

// Service is the planning server. Create with New, stop with Close.
type Service struct {
	// cur is the only reader-writer rendezvous: the applier stores fresh
	// snapshots, readers load. Everything reachable from a stored snapshot
	// is frozen, so a load needs no further synchronisation.
	cur atomic.Pointer[Snapshot]

	// roster is the applier-owned shadow state; no reader ever touches it.
	roster *core.Roster

	ops  chan op
	quit chan struct{}
	done chan struct{}
	stop sync.Once

	published atomic.Uint64
	batches   atomic.Uint64
	applied   atomic.Uint64
	rejected  atomic.Uint64
	maxBatch  atomic.Uint64
}

// New builds the initial snapshot synchronously (so Get works immediately)
// and starts the applier goroutine. The planner must not be used elsewhere
// while the service is running: the applier owns it.
func New(p *core.Planner, _ Config) *Service {
	s := &Service{
		roster: core.NewRosterActive(p, p.Tree.Clients),
		ops:    make(chan op, queueCap),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	pos := make([]int32, len(p.Tree.Parent))
	for i := range pos {
		pos[i] = -1
	}
	for i, c := range p.Tree.Clients {
		pos[c] = int32(i)
	}
	first := &Snapshot{
		Version:     1,
		Epoch:       0,
		strategies:  s.roster.StrategiesDense(nil),
		active:      s.roster.OccupancyDense(nil),
		activeCount: s.roster.ActiveCount(),
		pos:         pos,
		clients:     p.Tree.Clients,
	}
	s.cur.Store(first)
	go s.run()
	return s
}

// Get returns the client's current strategy (nil for non-clients and
// inactive members). Lock-free, wait-free, zero allocations: one atomic
// pointer load plus two slice reads.
func (s *Service) Get(c graph.NodeID) *core.Strategy {
	return s.cur.Load().Get(c)
}

// Snapshot returns the current immutable snapshot. Lock-free, wait-free,
// zero allocations; the caller may hold it for as long as it likes.
func (s *Service) Snapshot() *Snapshot { return s.cur.Load() }

// Join queues a membership addition. It returns once the op is enqueued
// (blocking only when the queue is full), not once it is applied; use
// Flush for a barrier. Invalid ops (already a member, not a tree client)
// are counted in Stats.Rejected at apply time.
func (s *Service) Join(c graph.NodeID) { s.enqueue(op{kind: opJoin, node: c}) }

// Leave queues a membership removal (see Join for the contract).
func (s *Service) Leave(c graph.NodeID) { s.enqueue(op{kind: opLeave, node: c}) }

// Flush blocks until every op queued before it has been applied and the
// resulting snapshot published. Returns immediately on a closed service.
func (s *Service) Flush() {
	ack := make(chan struct{})
	select {
	case s.ops <- op{kind: opFlush, ack: ack}:
	case <-s.quit:
		return
	}
	select {
	case <-ack:
	case <-s.done:
	}
}

// Stats returns the applier counters.
func (s *Service) Stats() Stats {
	return Stats{
		Published: s.published.Load(),
		Batches:   s.batches.Load(),
		Applied:   s.applied.Load(),
		Rejected:  s.rejected.Load(),
		MaxBatch:  s.maxBatch.Load(),
	}
}

// Close stops the applier. Queued but unapplied ops are dropped; the last
// published snapshot stays readable forever. Safe to call more than once.
func (s *Service) Close() {
	s.stop.Do(func() { close(s.quit) })
	<-s.done
}

func (s *Service) enqueue(o op) {
	select {
	case s.ops <- o:
	case <-s.quit:
	}
}

// run is the applier loop: block for one op, drain whatever else is queued
// up to batchCap, apply, publish, signal flushes.
func (s *Service) run() {
	defer close(s.done)
	batch := make([]op, 0, batchCap)
	for {
		var first op
		select {
		case first = <-s.ops:
		case <-s.quit:
			return
		}
		batch = append(batch[:0], first)
	drain:
		for len(batch) < batchCap {
			select {
			case o := <-s.ops:
				batch = append(batch, o)
			default:
				break drain
			}
		}
		s.apply(batch)
	}
}

// apply runs one coalesced batch against the shadow roster and publishes a
// snapshot if anything changed. Flush acks fire after the publish, so a
// flusher always observes its own ops.
func (s *Service) apply(batch []op) {
	var applied uint64
	for _, o := range batch {
		var err error
		switch o.kind {
		case opJoin:
			_, err = s.roster.Join(o.node)
		case opLeave:
			_, err = s.roster.Leave(o.node)
		case opFlush:
			continue
		}
		if err != nil {
			s.rejected.Add(1)
		} else {
			applied++
		}
	}
	if applied > 0 {
		s.publish()
		s.applied.Add(applied)
		s.batches.Add(1)
		if applied > s.maxBatch.Load() {
			s.maxBatch.Store(applied)
		}
	}
	for _, o := range batch {
		if o.kind == opFlush {
			close(o.ack)
		}
	}
}

// publish swaps in a fresh snapshot built from the shadow roster. The dense
// slices are newly allocated per publish — that is the immutability
// contract, one O(k) copy per batch.
func (s *Service) publish() {
	prev := s.cur.Load()
	next := &Snapshot{
		Version:     prev.Version + 1,
		Epoch:       s.roster.Epoch(),
		strategies:  s.roster.StrategiesDense(nil),
		active:      s.roster.OccupancyDense(nil),
		activeCount: s.roster.ActiveCount(),
		pos:         prev.pos,
		clients:     prev.clients,
	}
	s.cur.Store(next)
	s.published.Add(1)
}
