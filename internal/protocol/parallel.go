// The session runner: every run steps through one Chandy–Misra–Bryant-style
// lookahead-window loop over shards (Session.Run). A serial run is the
// one-shard case: the session itself is the only shard, on its own engine,
// net, oracle and rng streams, and its window is unbounded, so the loop is a
// single Engine.RunBefore(+Inf, MaxEvents) — the plain event loop.
//
// A sharded run (Config.SimWorkers ≥ 2) partitions the multicast tree into K
// recovery domains, or shards: contiguous preorder bands of routers, hosts
// riding with their access router (mtree.PartitionDomains, sized by
// DomainSize). Each shard gets its own event engine, network instance, and
// protocol-engine clone; a host's events execute only on its owner shard.
// Cross-shard packets are the only coupling: a path from one shard to
// another crosses at least one cut link, so a remote delivery arrives no
// earlier than its send time plus the partition lookahead Δ. The runner
// therefore alternates
//
//	ingest:  hand every outbox delivery to its owner shard
//	window:  each shard executes all events in [T0, T0+Δ)
//
// where T0 is the earliest pending instant anywhere. Every event executed in
// a window was already present — with its final timestamp — when the window
// opened, because anything a remote shard might still produce lands at or
// past the horizon. Barriers between phases make the shared reads
// (fault-state lookups, the oracle's sent vector, sentAt) race-free.
//
// Bit-identity with the one-shard run holds because, in the configurations
// the sharded mode accepts, the only rng consumer during a run is the
// data-plane loss stream — and data floods execute entirely on the source's
// shard, which draws the session net's own loss stream (the other shards
// get one rng.SplitN stream each, split from the session's root stream, for
// shard-local draws). Everything else is a pure function of event times,
// which the window protocol preserves; order-dependent accumulators (Welford
// latency) are replayed in global time order at merge. Configurations
// outside that envelope — queueing, jitter, lossy recovery, gap/session
// detection, burst or mutation faults, tracing hooks, engines without
// CloneForShard — run as one shard, with Result.SerialReason naming why.
package protocol

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"rmcast/internal/check"
	"rmcast/internal/graph"
	"rmcast/internal/metrics"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
	"rmcast/internal/trace"
)

// ShardCloner is implemented by protocol engines that can run partitioned:
// CloneForShard returns a fresh engine sharing this (already attached)
// engine's immutable plans, to be attached to one shard's sub-session. A nil
// return means the engine's current options cannot be sharded (e.g. a
// run-time replanning layer), so the run stays one shard.
type ShardCloner interface {
	Engine
	CloneForShard() Engine
}

// DomainSize is the recovery-domain size a sharded run partitions by:
// domainClients (Config.DomainClients) when positive, else
// max(8, ⌈clients/8⌉), which keeps the domain count K in [2, 8] for every
// group large enough to shard. Either way K is a function of the group
// size only — never of the worker count — so results are invariant under
// SimWorkers by construction: any worker count simulates the same K
// logical shards.
func DomainSize(clients, domainClients int) int {
	if domainClients > 0 {
		return domainClients
	}
	return max(8, (clients+7)/8)
}

// minParallelClients is the smallest group worth partitioning (below it the
// window overhead dwarfs the work).
const minParallelClients = 16

// parallelEligible returns the engine's shard-cloning interface when the
// whole configuration lies inside the sharded mode's exactness envelope, or
// nil plus a human-readable reason otherwise (see the package comment for
// the envelope's rationale). The reason is surfaced through
// Result.SerialReason so callers stop guessing why a -simworkers run stayed
// serial.
func (s *Session) parallelEligible() (ShardCloner, string) {
	if s.cfg.SimWorkers < 2 {
		return nil, ""
	}
	cl, ok := s.engine.(ShardCloner)
	if !ok {
		return nil, fmt.Sprintf("engine %s cannot be sharded (no CloneForShard)", s.engine.Name())
	}
	if s.cfg.Detection != DetectIdeal {
		return nil, "non-ideal loss detection (gap/session detection is order-sensitive)"
	}
	if s.Trace != nil {
		return nil, "trace hooks installed (global event order would be lost)"
	}
	// Net-level modes (set from cfg, but tests may also set them directly).
	if s.Net.Queue != nil {
		return nil, "queued routers (queueing state is order-sensitive)"
	}
	if s.Net.Jitter != 0 {
		return nil, "link jitter draws from an order-sensitive rng stream"
	}
	if s.Net.ControlLoss {
		return nil, "lossy control plane draws from an order-sensitive rng stream"
	}
	if s.Net.OnSend != nil || s.Net.OnDrop != nil {
		return nil, "net-level observation hooks installed"
	}
	if len(s.Topo.Clients) < minParallelClients {
		return nil, fmt.Sprintf("group too small to shard (%d clients < %d)",
			len(s.Topo.Clients), minParallelClients)
	}
	if f := s.cfg.Fault; !f.Empty() {
		// Crash/outage windows are pure time lookups and shard cleanly;
		// burst chains and the message mutator draw from streams whose
		// order a partitioned run cannot reproduce.
		if len(f.Burst) > 0 {
			return nil, "burst-loss faults draw from order-sensitive rng chains"
		}
		if !f.Mutation.Empty() {
			return nil, "message-plane mutation draws from an order-sensitive rng stream"
		}
	}
	return cl, ""
}

// Run executes the whole session and returns the result. Every run takes
// this one path: the session is laid out as shards (layOut), stepped
// through the lookahead-window loop until it quiesces or spends MaxEvents,
// and folded into one Result (mergeShards).
func (s *Session) Run() *Result {
	if s.Trace != nil {
		s.Net.OnSend = func(pkt sim.Packet) {
			var k trace.Kind
			switch pkt.Kind {
			case sim.Data:
				return // SendData is emitted once per multicast (OnSimEvent)
			case sim.Request:
				k = trace.SendRequest
			case sim.Repair:
				k = trace.SendRepair
			}
			s.emit(trace.Event{At: s.Eng.Now(), Kind: k,
				Node: int32(pkt.From), Peer: -1, Seq: pkt.Seq})
		}
		s.Net.OnDrop = func(pkt sim.Packet, link graph.EdgeID) {
			s.emit(trace.Event{At: s.Eng.Now(), Kind: trace.Drop,
				Node: int32(link), Peer: -1, Seq: pkt.Seq})
		}
	}
	shards, delta := s.layOut()
	maxEvents := s.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 50_000_000
	}
	workers := min(s.cfg.SimWorkers, len(shards))
	processed := make([]uint64, len(shards))
	ingest := make([][]sim.RemoteDelivery, len(shards)) // per-shard buffers, reused

	var total uint64
	for total < maxEvents {
		// T0: the earliest pending instant anywhere — heap tops plus
		// still-unhanded outbox deliveries from the previous window.
		t0 := math.Inf(1)
		for _, sh := range shards {
			if at, ok := sh.Eng.NextEventAt(); ok && at < t0 {
				t0 = at
			}
			for _, rd := range sh.Net.Outbox() {
				t0 = min(t0, rd.At)
			}
		}
		if math.IsInf(t0, 1) {
			break // quiesced
		}
		horizon, budget := t0+delta, maxEvents-total
		// Ingest: each shard collects its own arrivals from every outbox in
		// shard order and schedules them locally as one batch, which fires
		// them in time order, equal instants in collection order.
		eachShard(workers, len(shards), func(i int) {
			buf := ingest[i][:0]
			for _, src := range shards {
				for _, rd := range src.Net.Outbox() {
					if rd.Dst == int32(i) {
						buf = append(buf, rd)
					}
				}
			}
			shards[i].Net.InjectRemote(buf)
			ingest[i] = buf
		})
		// Window: each shard clears its (fully ingested) outbox and drains
		// its calendar up to the horizon, within the remaining event budget,
		// emitting next window's traffic.
		eachShard(workers, len(shards), func(i int) {
			shards[i].Net.ResetOutbox()
			processed[i] += shards[i].Eng.RunBefore(horizon, budget)
		})
		total = 0
		for _, n := range processed {
			total += n
		}
	}
	return s.mergeShards(shards, total)
}

// layOut lays the run out as shards and returns them with the window width:
// the session itself, with an unbounded window, when the run is serial or
// the sharded mode cannot reproduce it (serialReason says why), else the K
// recovery domains' sub-sessions, at the partition lookahead.
func (s *Session) layOut() ([]*Session, float64) {
	engines, part, reason := s.planDomains()
	if engines == nil {
		if s.cfg.SimWorkers >= 2 {
			s.serialReason = reason
		}
		s.scheduleProgram(true)
		return []*Session{s}, math.Inf(1)
	}
	if part.ShardOf[s.Topo.Source] != 0 {
		// The source's domain draws the session's loss stream; the
		// partitioner puts it on shard 0.
		panic("protocol: source not on shard 0")
	}
	// The domains hold the per-client state, and the merge gathers it back:
	// drop the session's own rather than carry a full copy beside theirs for
	// the whole run. The session's oracle becomes the master that absorbs
	// the domains' at the end.
	s.rows, s.coded, s.oracle = nil, nil, nil
	var sent []bool
	if s.cfg.Check != CheckOff {
		sent = make([]bool, s.cfg.Packets)
		s.oracle = check.NewShard(len(s.Topo.Clients), s.cfg.Packets, sent, nil)
	}
	rands := s.root.SplitN(part.K)
	shards := make([]*Session, part.K)
	for i := range shards {
		shards[i] = s.domain(int32(i), part.ShardOf, engines[i], sent, rands[i])
	}
	return shards, part.Lookahead
}

// planDomains resolves the eligibility check into a concrete partition and
// one engine clone per domain, or returns nils plus the reason the run stays
// one shard (ineligible configuration, degenerate partition, no usable
// lookahead, or an engine that cannot clone under its options).
func (s *Session) planDomains() ([]Engine, *mtree.Partition, string) {
	cloner, reason := s.parallelEligible()
	if cloner == nil {
		return nil, nil, reason
	}
	size := DomainSize(len(s.Topo.Clients), s.cfg.DomainClients)
	part := mtree.PartitionDomains(s.Tree, size)
	if part.K < 2 {
		return nil, nil, fmt.Sprintf(
			"domain mode: group fits a single domain (%d clients ≤ %d per domain)",
			len(s.Topo.Clients), size)
	}
	if part.Lookahead <= 0 || math.IsInf(part.Lookahead, 1) {
		return nil, nil, "domain mode: degenerate domain partition (no usable lookahead)"
	}
	// A window ends at t0 + Δ, so Δ must survive rounding at every instant
	// the run reaches — bounded here by twice its last scheduled one, the
	// last detection or fault transition — or windows would stop advancing.
	end := s.sentAt[len(s.sentAt)-1] + s.cfg.DetectLag
	if f := s.cfg.Fault; f != nil {
		for _, e := range f.Events {
			end = max(end, e.At)
		}
	}
	if 2*end+part.Lookahead == 2*end {
		return nil, nil, fmt.Sprintf("domain mode: lookahead %g ms vanishes at the run's time scale (%g ms)",
			part.Lookahead, end)
	}
	engines := make([]Engine, part.K)
	for i := range engines {
		if engines[i] = cloner.CloneForShard(); engines[i] == nil {
			return nil, nil, fmt.Sprintf(
				"engine %s cannot shard under its current options (run-time replanning or failover)",
				s.engine.Name())
		}
	}
	return engines, part, ""
}

// domain builds the sub-session of domain id: its own engine, a net derived
// from the session's, rows and a shard oracle for the clients it owns, and
// an engine clone, wired and laid out like the session itself so that
// same-instant events keep their one-shard order within the domain. The
// source's domain (id 0) draws the session net's loss stream.
func (s *Session) domain(id int32, shardOf []int32, engine Engine, sent []bool, r *rng.Rand) *Session {
	eng := sim.NewEngine()
	netRand := r
	if id == 0 {
		netRand = s.netRand
	}
	sub := &Session{
		Eng:       eng,
		Net:       s.Net.Shard(eng, netRand, id, shardOf),
		Topo:      s.Topo,
		Tree:      s.Tree,
		Routes:    s.Routes,
		Rand:      r,
		cfg:       s.cfg,
		engine:    engine,
		clientIdx: s.clientIdx,
		rows:      make([]*clientRow, len(s.Topo.Clients)),
		sentAt:    s.sentAt,
		latHist:   metrics.NewHistogram(0, 5000, 500),
		numNodes:  s.numNodes,
		latLogOn:  true,
	}
	var owned []int
	for i, c := range s.Topo.Clients {
		if shardOf[c] == id { // other rows stay nil: an ownership violation faults loudly
			owned = append(owned, i)
			sub.rows[i] = newClientRow(s.cfg.Packets)
		}
	}
	if sent != nil {
		sub.oracle = check.NewShard(len(s.Topo.Clients), s.cfg.Packets, sent, owned)
	}
	sub.attach()
	if f := s.Net.Fault; f != nil {
		sub.Net.InstallFault(f)
	}
	sub.scheduleProgram(id == 0)
	return sub
}

// mergeShards folds the shards' outcomes into the run's Result. A one-shard
// run already holds them in the session; a sharded run gathers its domains'
// first. Classification, the dedup audit and the oracle's finish then run
// once, over the session's state.
func (s *Session) mergeShards(shards []*Session, total uint64) *Result {
	complete, endTime := true, 0.0
	for _, sh := range shards {
		if sh.Eng.Pending() > 0 || len(sh.Net.Outbox()) > 0 {
			complete = false
		}
		endTime = max(endTime, sh.Eng.Now())
	}
	if len(shards) > 1 {
		s.gather(shards)
	}
	var down []bool
	if s.oracle != nil {
		down = make([]bool, len(s.Topo.Clients))
	}
	for i, c := range s.Topo.Clients {
		// A client still down when the run ends (permanent crash, or a
		// window outlasting the traffic) keeps its missing packets as
		// UnrecoveredCrashed; for a live client an open gap is a liveness
		// violation and stays in Unrecovered.
		isDown := s.Net.Fault != nil && !s.Net.Fault.HostUpAt(c, endTime)
		if down != nil {
			down[i] = isDown
		}
		r := s.rows[i]
		for seq, got := range r.received {
			switch {
			case got:
				s.stats.Delivered++
			case isDown:
				s.stats.UnrecoveredCrashed++
			case !math.IsNaN(r.detectAt[seq]):
				s.stats.Unrecovered++
			}
		}
	}
	var violations []string
	if o := s.oracle; o != nil {
		for _, sh := range shards {
			if da, ok := sh.engine.(DedupAudited); ok {
				for _, cache := range da.DedupCaches() {
					o.CheckBound(sh.engine.Name()+" dedup cache", cache.Len(), cache.Cap())
				}
			}
			if sh != s {
				o.Absorb(sh.oracle)
			}
		}
		st, hops, drops := &s.stats, s.Net.Hops, s.Net.Drops
		violations = o.Finish(complete, down, check.Totals{
			Losses:             st.Losses,
			Recoveries:         st.Recoveries,
			Duplicates:         st.Duplicates,
			PreDetection:       st.PreDetection,
			DataDeliveries:     st.DataDeliveries,
			LateData:           st.LateData,
			Malformed:          st.Malformed,
			CodedSymbols:       st.CodedSymbols,
			CodedDuplicates:    st.CodedDuplicates,
			Failovers:          st.Failovers,
			FencedStale:        st.FencedStale,
			Delivered:          st.Delivered,
			Unrecovered:        st.Unrecovered,
			UnrecoveredCrashed: st.UnrecoveredCrashed,
			DataHops:           hops.Data,
			RequestHops:        hops.Request,
			RepairHops:         hops.Repair,
			DataDrops:          drops.Data,
			RequestDrops:       drops.Request,
			RepairDrops:        drops.Repair,
		})
	}
	perClient := make(map[graph.NodeID]metrics.Summary, len(s.Topo.Clients))
	for i, c := range s.Topo.Clients {
		perClient[c] = s.rows[i].latency
	}
	res := &Result{
		Violations:       violations,
		PerClientLatency: perClient,
		Protocol:         s.engine.Name(),
		Clients:          len(s.Topo.Clients),
		Packets:          s.cfg.Packets,
		Stats:            s.stats,
		Hops:             s.Net.Hops,
		Drops:            s.Net.Drops,
		Events:           total,
		SimTime:          endTime,
		LatencyHist:      s.latHist,
		Complete:         complete,
		SerialReason:     s.serialReason,
	}
	if len(shards) > 1 {
		// Execution metadata only — outside the result digest, so a sharded
		// run hashes identically to its one-shard twin.
		res.Sharded, res.Domains = true, len(shards)
	}
	return res
}

// gather folds a sharded run's domains into the session's own, idle state,
// so that it equals what one shard would hold: counters, hops, drops and
// histogram buckets sum, each client's row comes from the domain that holds
// it, and the order-dependent Welford latency summary is replayed from the
// stamped logs in global event-time order.
func (s *Session) gather(shards []*Session) {
	type stamped struct {
		latSample
		shard int
	}
	n := 0
	for _, sh := range shards {
		n += len(sh.latLog)
	}
	lats := make([]stamped, 0, n)
	s.rows = make([]*clientRow, len(s.Topo.Clients))
	for si, sh := range shards {
		st := &sh.stats
		s.stats.Losses += st.Losses
		s.stats.Recoveries += st.Recoveries
		s.stats.Duplicates += st.Duplicates
		s.stats.PreDetection += st.PreDetection
		s.stats.DataDeliveries += st.DataDeliveries
		s.stats.LateData += st.LateData
		s.stats.Malformed += st.Malformed
		s.stats.CodedSymbols += st.CodedSymbols
		s.stats.CodedDuplicates += st.CodedDuplicates
		s.stats.Failovers += st.Failovers
		s.stats.FencedStale += st.FencedStale
		s.Net.Hops.Data += sh.Net.Hops.Data
		s.Net.Hops.Request += sh.Net.Hops.Request
		s.Net.Hops.Repair += sh.Net.Hops.Repair
		s.Net.Drops.Data += sh.Net.Drops.Data
		s.Net.Drops.Request += sh.Net.Drops.Request
		s.Net.Drops.Repair += sh.Net.Drops.Repair
		s.latHist.Merge(sh.latHist)
		for _, e := range sh.latLog {
			lats = append(lats, stamped{e, si})
		}
		for i, r := range sh.rows {
			if r != nil {
				s.rows[i] = r
			}
		}
	}
	// The stable sort keeps equal instants in (shard, local) order.
	slices.SortStableFunc(lats, func(a, b stamped) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	for _, e := range lats {
		s.stats.Latency.Add(e.lat)
	}
}

// eachShard runs f(i) for every shard index i < n and blocks until all are
// done. With two or more workers that many goroutines claim the shards
// through an atomic counter, so an uneven shard finishes early and its
// worker steals the next one, and the first panic is re-raised on the
// caller. With fewer it runs inline, so a one-shard run's panics surface
// unwrapped.
func eachShard(workers, n int, f func(int)) {
	if workers < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	type shardPanic struct {
		val   interface{}
		stack []byte
	}
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		failure atomic.Pointer[shardPanic]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			// A panicking worker must still reach wg.Done, or the barrier
			// deadlocks.
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failure.CompareAndSwap(nil, &shardPanic{val: r, stack: debug.Stack()})
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
	if fp := failure.Load(); fp != nil {
		panic(fmt.Sprintf("protocol: shard worker panic: %v\n%s", fp.val, fp.stack))
	}
}
