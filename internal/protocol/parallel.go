// Conservative parallel execution of one session (Config.SimWorkers ≥ 2):
// a Chandy–Misra–Bryant-style windowed runner over tree shards.
//
// The multicast tree is partitioned into K recovery domains, or shards:
// contiguous preorder bands of routers, hosts riding with their access
// router (mtree.PartitionDomains, sized by DomainSize). Each shard gets its
// own event engine, network instance, and protocol-engine clone; a host's
// events execute only on its owner shard. Cross-shard packets are the only
// coupling: a path from one shard to another crosses at least one cut link,
// so a remote delivery arrives no earlier than its send time plus the
// partition lookahead Δ. The runner therefore alternates
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
// Bit-identity with the serial engine holds because, in the configurations
// the runner accepts, the only rng consumer during a run is the data-plane
// loss stream — and data floods execute entirely on the source's shard,
// which owns the exact netRand stream the serial run would use (the
// remaining streams are re-derived in the serial split order, plus one
// rng.SplitN stream per shard for future shard-local draws). Everything
// else is a pure function of event times, which the window protocol
// preserves; order-dependent accumulators (Welford latency) are replayed in
// global time order at merge. Configurations outside that envelope —
// queueing, jitter, lossy recovery, gap/session detection, burst or
// mutation faults, tracing hooks, engines without CloneForShard — fall back
// to the serial path, which stays byte-for-byte untouched.
package protocol

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rmcast/internal/check"
	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/metrics"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
)

// ShardCloner is implemented by protocol engines that can run partitioned:
// CloneForShard returns a fresh engine sharing this (already attached)
// engine's immutable plans, to be attached to one shard's sub-session. A nil
// return means the engine's current options cannot be sharded (e.g. a
// run-time replanning layer), forcing the serial fallback.
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
// whole configuration lies inside the parallel runner's exactness envelope,
// or nil plus a human-readable reason otherwise (see the package comment for
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

// shardRun is one shard's execution state.
type shardRun struct {
	eng       *sim.Engine
	net       *sim.Net
	sub       *Session
	engine    Engine
	owned     []int // client indices this shard owns, ascending
	processed uint64
	ingest    []sim.RemoteDelivery // scratch for the ingest phase
}

// planParallel resolves the eligibility check into a concrete partition,
// returning nils plus a reason when the run must stay serial (ineligible
// configuration, degenerate partition, or no usable lookahead).
func (s *Session) planParallel() (ShardCloner, *mtree.Partition, string) {
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
	return cloner, part, ""
}

// ParallelEligible reports whether Run will genuinely execute sharded under
// the current configuration — false means Config.SimWorkers (if ≥ 2) would
// silently fall back to the serial path. The scaling sweep uses it to label
// its speedup cells honestly.
func (s *Session) ParallelEligible() bool {
	cloner, part, _ := s.planParallel()
	return cloner != nil && part != nil && cloner.CloneForShard() != nil
}

// runSharded executes the session on the conservative parallel engine,
// returning nil when the configuration requires the serial path (recording
// why in s.serialReason for the serial Result to surface).
func (s *Session) runSharded() *Result {
	cloner, part, reason := s.planParallel()
	if cloner == nil {
		if s.cfg.SimWorkers >= 2 {
			s.serialReason = reason
		}
		return nil
	}
	k := part.K
	if part.ShardOf[s.Topo.Source] != 0 {
		// The runner assumes the source's shard owns the serial netRand
		// stream; the partitioner guarantees shard 0.
		panic("protocol: source not on shard 0")
	}
	engines := make([]Engine, k)
	for i := range engines {
		if engines[i] = cloner.CloneForShard(); engines[i] == nil {
			s.serialReason = fmt.Sprintf(
				"engine %s cannot shard under its current options (run-time replanning or failover)",
				s.engine.Name())
			return nil
		}
	}
	// The run shards from here on. Each domain's sub-session holds its own
	// clients' rows and the merge assembles the result from those, so the
	// coordinator's per-client state is never read: drop it rather than
	// carry a full copy beside the domains' for the whole run.
	s.rows, s.coded, s.oracle = nil, nil, nil

	// Re-derive the serial run's rng stream layout: netRand (the only
	// stream that draws in eligible runs — data-plane loss, on the source's
	// shard), protoRand, the fault state's stream, then one SplitN stream
	// per shard for the other shards' nets.
	root := rng.New(s.seed)
	netRand := root.Split()
	protoRand := root.Split()
	_ = protoRand
	var faultState *fault.State
	if !s.cfg.Fault.Empty() {
		faultState = fault.NewState(s.cfg.Fault, root.Split())
	}
	shardRands := root.SplitN(k)

	// Shared read-only state: the host set, the precomputed send schedule,
	// and (under checking) the oracle's sent vector.
	hosts := make([]bool, s.numNodes)
	for _, c := range s.Topo.Clients {
		hosts[c] = true
	}
	hosts[s.Topo.Source] = true
	var sent []bool
	var master *check.Oracle
	if s.cfg.Check != CheckOff {
		sent = make([]bool, s.cfg.Packets)
		master = check.NewShard(len(s.Topo.Clients), s.cfg.Packets,
			s.cfg.Check == CheckStrict, sent, nil)
	}

	// One tree adjacency (CSR) shared read-only by every shard's net: at a
	// million clients the per-net copy would multiply the largest flooding
	// structure by the domain count.
	adj := sim.NewTreeAdjacency(s.Topo)
	shards := make([]*shardRun, k)
	for i := 0; i < k; i++ {
		shards[i] = s.buildShard(int32(i), part, engines[i], hosts, sent,
			netRand, shardRands[i], faultState, adj)
	}

	maxEvents := s.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 50_000_000
	}
	workers := s.cfg.SimWorkers
	if workers > k {
		workers = k
	}
	pool := newShardPool(workers, k)
	defer pool.close()

	delta := part.Lookahead
	var total uint64
	for total < maxEvents {
		// T0: the earliest pending instant anywhere — heap tops plus
		// still-unhanded outbox deliveries from the previous window.
		t0 := math.Inf(1)
		for _, sh := range shards {
			if at, ok := sh.eng.NextEventAt(); ok && at < t0 {
				t0 = at
			}
			for _, rd := range sh.net.Outbox() {
				if rd.At < t0 {
					t0 = rd.At
				}
			}
		}
		if math.IsInf(t0, 1) {
			break // quiesced
		}
		horizon := t0 + delta
		// Ingest: each shard collects its own arrivals from every outbox in
		// shard order, time-sorted (stably, so equal instants keep a
		// deterministic order), and schedules them locally.
		pool.each(func(i int) {
			sh := shards[i]
			buf := sh.ingest[:0]
			for _, src := range shards {
				for _, rd := range src.net.Outbox() {
					if rd.Dst == int32(i) {
						buf = append(buf, rd)
					}
				}
			}
			sort.SliceStable(buf, func(a, b int) bool { return buf[a].At < buf[b].At })
			for _, rd := range buf {
				sh.net.InjectRemote(rd.At, rd.Node, rd.Pkt)
			}
			sh.ingest = buf
		})
		// Window: each shard clears its (fully ingested) outbox and drains
		// its calendar up to the horizon, emitting next window's traffic.
		pool.each(func(i int) {
			sh := shards[i]
			sh.net.ResetOutbox()
			sh.processed += sh.eng.RunBefore(horizon)
		})
		total = 0
		for _, sh := range shards {
			total += sh.processed
		}
	}

	complete := true
	endTime := 0.0
	for _, sh := range shards {
		if sh.eng.Pending() > 0 || len(sh.net.Outbox()) > 0 {
			complete = false
		}
		if t := sh.eng.Now(); t > endTime {
			endTime = t
		}
	}
	res := s.mergeShards(shards, master, faultState, total, endTime, complete)
	// Execution metadata only — outside the result digest, so a sharded run
	// hashes identically to its serial twin.
	res.Domains = k
	return res
}

// buildShard assembles one shard's engine, network, and sub-session, and
// schedules the shard's slice of the send/detect program.
func (s *Session) buildShard(id int32, part *mtree.Partition, engine Engine,
	hosts, sent []bool, netRand, shardRand *rng.Rand, faultState *fault.State,
	adj *sim.TreeAdjacency) *shardRun {
	eng := sim.NewEngine()
	r := shardRand
	if id == 0 {
		r = netRand
	}
	net := sim.NewNetShared(eng, s.Topo, s.Tree, s.Routes, r, adj)
	net.EnableShard(id, part.ShardOf, hosts)
	clients := len(s.Topo.Clients)
	sub := &Session{
		Eng:       eng,
		Net:       net,
		Topo:      s.Topo,
		Tree:      s.Tree,
		Routes:    s.Routes,
		Rand:      shardRand,
		cfg:       s.cfg,
		engine:    engine,
		seed:      s.seed,
		clientIdx: s.clientIdx,
		rows:      make([]*clientRow, clients),
		sentAt:    s.sentAt,
		latHist:   metrics.NewHistogram(0, 5000, 500),
		numNodes:  s.numNodes,
		latLogOn:  true,
	}
	sh := &shardRun{eng: eng, net: net, sub: sub, engine: engine}
	for i, c := range s.Topo.Clients {
		if part.ShardOf[c] != id {
			continue // rows stay nil: an ownership violation faults loudly
		}
		sh.owned = append(sh.owned, i)
		sub.rows[i] = newClientRow(s.cfg.Packets)
		c := c
		net.SetHandler(c, func(pkt sim.Packet) { sub.onDeliver(c, pkt) })
	}
	if id == 0 {
		src := s.Topo.Source
		net.SetHandler(src, func(pkt sim.Packet) { sub.onDeliver(src, pkt) })
	}
	if sent != nil {
		sub.oracle = check.NewShard(clients, s.cfg.Packets,
			s.cfg.Check == CheckStrict, sent, sh.owned)
	}
	engine.Attach(sub)
	if faultState != nil {
		net.InstallFaultShared(faultState)
		fa, _ := engine.(FaultAware)
		net.OnCrash = func(h graph.NodeID) {
			if fa != nil {
				fa.OnCrash(h)
			}
		}
		net.OnRecover = func(h graph.NodeID) {
			if fa != nil {
				fa.OnRecover(h)
			}
		}
	}
	// The shard's slice of the serial send/detect program, in the serial
	// tie-break order so same-instant events keep their serial relative
	// order within the shard.
	sub.scheduleProgram(id == 0)
	return sh
}

// mergeShards folds the per-shard outcomes into one Result, exactly equal to
// what the serial engine would report: integer counters and histogram
// buckets sum; the order-dependent Welford latency summary is replayed from
// the stamped logs in global time order; classification and the oracle's
// finish run once, centrally, over the assembled global state.
func (s *Session) mergeShards(shards []*shardRun, master *check.Oracle,
	faultState *fault.State, total uint64, endTime float64, complete bool) *Result {
	var st Stats
	var hops, drops sim.HopCount
	type stamped struct {
		latSample
		shard int
	}
	var lats []stamped
	rows := make([]*clientRow, len(s.Topo.Clients))
	latHist := metrics.NewHistogram(0, 5000, 500)
	for si, sh := range shards {
		st.Losses += sh.sub.stats.Losses
		st.Recoveries += sh.sub.stats.Recoveries
		st.Duplicates += sh.sub.stats.Duplicates
		st.PreDetection += sh.sub.stats.PreDetection
		st.DataDeliveries += sh.sub.stats.DataDeliveries
		st.LateData += sh.sub.stats.LateData
		st.Malformed += sh.sub.stats.Malformed
		st.CodedSymbols += sh.sub.stats.CodedSymbols
		st.CodedDuplicates += sh.sub.stats.CodedDuplicates
		st.Failovers += sh.sub.stats.Failovers
		st.FencedStale += sh.sub.stats.FencedStale
		hops.Data += sh.net.Hops.Data
		hops.Request += sh.net.Hops.Request
		hops.Repair += sh.net.Hops.Repair
		drops.Data += sh.net.Drops.Data
		drops.Request += sh.net.Drops.Request
		drops.Repair += sh.net.Drops.Repair
		latHist.Merge(sh.sub.latHist)
		for _, e := range sh.sub.latLog {
			lats = append(lats, stamped{e, si})
		}
		for _, i := range sh.owned {
			rows[i] = sh.sub.rows[i]
		}
	}
	// Replay in global event-time order; the stable sort keeps equal
	// instants in (shard, local) order, deterministically.
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
		st.Latency.Add(e.lat)
	}

	down := make([]bool, len(s.Topo.Clients))
	for i, c := range s.Topo.Clients {
		down[i] = faultState != nil && !faultState.HostUpAt(c, endTime)
		for seq, got := range rows[i].received {
			switch {
			case got:
				st.Delivered++
			case down[i]:
				st.UnrecoveredCrashed++
			case !math.IsNaN(rows[i].detectAt[seq]):
				st.Unrecovered++
			}
		}
	}

	var violations []string
	if master != nil {
		for _, sh := range shards {
			if da, ok := sh.engine.(DedupAudited); ok {
				for _, cache := range da.DedupCaches() {
					master.CheckBound(sh.engine.Name()+" dedup cache", cache.Len(), cache.Cap())
				}
			}
			master.Absorb(sh.sub.oracle, sh.owned)
		}
		violations = master.Finish(complete, down, check.Totals{
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
	perClientMap := make(map[graph.NodeID]metrics.Summary, len(s.Topo.Clients))
	for i, c := range s.Topo.Clients {
		perClientMap[c] = rows[i].latency
	}
	return &Result{
		Violations:       violations,
		PerClientLatency: perClientMap,
		Protocol:         s.engine.Name(),
		Clients:          len(s.Topo.Clients),
		Packets:          s.cfg.Packets,
		Stats:            st,
		Hops:             hops,
		Drops:            drops,
		Events:           total,
		SimTime:          endTime,
		LatencyHist:      latHist,
		Complete:         complete,
		Sharded:          true,
	}
}

// shardPool runs one function over every shard index on a fixed set of
// worker goroutines, with a barrier per call. Shards are claimed through an
// atomic counter, so an uneven shard finishes early and its worker steals
// the next one.
type shardPool struct {
	workers int
	shards  int
	work    chan func(int)
	wg      sync.WaitGroup
	next    atomic.Int64
	failure atomic.Pointer[shardPanic]
}

// shardPanic carries the first panic out of a worker goroutine.
type shardPanic struct {
	val   interface{}
	stack []byte
}

func newShardPool(workers, shards int) *shardPool {
	p := &shardPool{workers: workers, shards: shards, work: make(chan func(int))}
	for w := 0; w < workers; w++ {
		go func() {
			for f := range p.work {
				for {
					i := int(p.next.Add(1)) - 1
					if i >= p.shards {
						break
					}
					p.runOne(f, i)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// runOne executes f on one shard, capturing the first panic for the
// coordinator (a panicking worker must still reach wg.Done, or the barrier
// deadlocks).
func (p *shardPool) runOne(f func(int), i int) {
	defer func() {
		if r := recover(); r != nil {
			p.failure.CompareAndSwap(nil, &shardPanic{val: r, stack: debug.Stack()})
		}
	}()
	f(i)
}

// each runs f(i) for every shard index and blocks until all are done,
// re-raising the first shard panic on the caller.
func (p *shardPool) each(f func(int)) {
	p.next.Store(0)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.work <- f
	}
	p.wg.Wait()
	if fp := p.failure.Load(); fp != nil {
		panic(fmt.Sprintf("protocol: shard worker panic: %v\n%s", fp.val, fp.stack))
	}
}

func (p *shardPool) close() { close(p.work) }
