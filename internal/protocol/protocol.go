// Package protocol provides the reliable-multicast session framework shared
// by the three recovery schemes the paper compares (RP, SRM, RMA) and the
// source-recovery ablation baseline.
//
// A Session drives one simulation run: the source multicasts a stream of
// data packets over the tree; per-link loss leaves gaps at clients; clients
// detect each gap and hand it to the protocol Engine, which exchanges
// Request/Repair packets until every gap is filled. The session — not the
// engines — owns ground truth (who has which packet), loss detection, and
// the latency/bandwidth accounting, so the three protocols are measured
// identically.
//
// Loss detection is idealised and uniform across protocols: a client learns
// it missed packet seq a fixed DetectLag after the instant the packet would
// have arrived loss-free. Real protocols detect via sequence gaps or
// heartbeats; modelling that identically for all three schemes would shift
// every latency curve by the same amount, so the idealisation preserves the
// comparisons the paper reports.
//
// That schedule — the sends plus one detection per (client, packet) — is
// laid out by one detect program (program.go) on every shard's engine, the
// session's own in a serial run. It keeps one pending detection per packet
// and pushes the next when the previous one fires, at the tie-break sequence
// number the full schedule would have given it, so the event calendar holds
// O(packets) program events rather than O(clients × packets) and every run
// is unchanged.
package protocol

import (
	"fmt"
	"math"
	"math/bits"

	"rmcast/internal/check"
	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/metrics"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/sim"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

// Engine is one recovery protocol bound to a session.
type Engine interface {
	// Name identifies the protocol in reports ("RP", "SRM", "RMA", …).
	Name() string
	// Attach is called once, before any traffic, with the session.
	Attach(s *Session)
	// OnDetect is called when client c detects that packet seq is missing.
	OnDetect(c graph.NodeID, seq int)
	// OnPacket is called for every Request or Repair delivered to host —
	// including repairs for packets the host already has (needed for
	// SRM-style suppression). Data packets are handled by the session.
	OnPacket(host graph.NodeID, pkt sim.Packet)
}

// FaultAware is optionally implemented by engines that react to host
// crash/recover transitions of an installed fault schedule (Config.Fault):
// parking a crashed client's retry timers so a permanent crash cannot wedge
// the event loop, and resuming its recovery after a reboot. The request
// engines keep their recoveries in the session's table, so each hook is a
// Park or a Resume call. The session dispatches the hooks at each effective
// transition; engines without the interface rely on the network layer
// silencing a dead host's traffic.
type FaultAware interface {
	OnCrash(host graph.NodeID)
	OnRecover(host graph.NodeID)
}

// DetectionMode selects how clients learn that a packet is missing.
type DetectionMode uint8

const (
	// DetectIdeal notifies a client DetectLag after the instant the lost
	// packet would have arrived — the uniform idealisation used for the
	// paper's comparisons (see the package comment).
	DetectIdeal DetectionMode = iota
	// DetectGap is the realistic mode: a client notices a gap when a
	// later data packet arrives (sequence-number gap detection), with a
	// session-tail sweep catching losses of the final packets. Latencies
	// measured under this mode include the gap-exposure delay.
	DetectGap
	// DetectSession adds SRM-style session messages to gap detection: the
	// source periodically multicasts a heartbeat advertising the highest
	// sequence sent, so tail losses are exposed within one heartbeat
	// interval instead of waiting for the end-of-run sweep. This is how
	// SRM actually bounds tail-loss detection.
	DetectSession
)

// CheckMode says whether a session runs the runtime invariant oracle
// (internal/check). The zero value is strict, so every session — including
// every existing test and sweep — runs under the oracle unless a caller
// opts out.
type CheckMode uint8

const (
	// CheckStrict (the default) panics on event-level safety violations —
	// shadow-state divergence, a repair for a never-sent seq, a double-
	// counted delivery — and records end-of-run findings (liveness,
	// conservation) in Result.Violations.
	CheckStrict CheckMode = iota
	// CheckOff disables the oracle entirely.
	CheckOff
)

// Config parameterises a session run.
type Config struct {
	// Packets is the number of data packets the source multicasts.
	Packets int
	// Interval is the inter-packet send spacing (ms).
	Interval float64
	// Detection selects the loss-detection model (default DetectIdeal).
	// Under DetectGap and DetectSession, tail losses are declared 2·Interval
	// after the last packet's loss-free arrival; under DetectSession the
	// source also multicasts a heartbeat every 4·Interval, on the data
	// plane and subject to loss like data.
	Detection DetectionMode
	// DetectLag is the extra delay between a packet's loss-free arrival
	// time and the client noticing the gap (ms). Zero is allowed: an
	// epsilon is applied internally so detection orders after delivery.
	DetectLag float64
	// LossyRecovery subjects recovery traffic (requests and repairs) to
	// per-link loss. The paper's model keeps recovery traffic lossless
	// (§3.1; see sim.Net.ControlLoss), which is the default; enable this
	// for the robustness experiments.
	LossyRecovery bool
	// Jitter adds per-traversal queueing variability (see sim.Net.Jitter).
	// Zero — the paper's fixed-delay model — is the default. It may not
	// exceed maxJitter, so a crossing takes at most 1001× its link's delay
	// and a huge factor cannot overflow an arrival time to +Inf.
	Jitter float64
	// Fault, when non-empty, installs a failure-injection schedule (host
	// crashes, link outages, burst loss — see internal/fault). Nil or empty
	// reproduces the paper's reliable network bit-for-bit: the schedule's
	// private rng stream is only split off when faults are configured, and
	// an inert fault state never draws from the network's loss stream. A
	// non-nil schedule is validated (Schedule.Validate) even when empty.
	Fault *fault.Schedule
	// PacketTime, when positive, enables the store-and-forward congestion
	// model (sim.QueueModel) with this per-packet per-link service time
	// (ms). Under congestion a delayed data packet can arrive after the
	// idealised detector fired — pair this with a DetectLag covering the
	// expected queueing delay, or with DetectGap; late arrivals are
	// counted in Stats.LateData either way.
	PacketTime float64
	// MaxEvents aborts runaway runs; 0 means the package default (50M).
	MaxEvents uint64
	// SimWorkers, when ≥ 2, requests the conservative parallel engine: the
	// tree is partitioned into shards, each simulated on its own event
	// engine, synchronised on lookahead-wide safe-time windows (see
	// parallel.go). Results are bit-identical to serial. A serial run is the
	// one-shard case of the same runner: 0 or 1 means one shard, and so do
	// configurations the sharded mode cannot reproduce exactly (queueing,
	// jitter, lossy recovery, non-ideal detection, burst/mutation faults,
	// tracing, or an engine without shard support), with Result.SerialReason
	// naming why — so any worker count is always safe.
	SimWorkers int
	// DomainClients sizes the recovery domains of a sharded run
	// (SimWorkers ≥ 2): the tree is partitioned into local recovery domains
	// of about this many clients each (mtree.PartitionDomains), one engine
	// per domain, cross-domain traffic merged through the lookahead-window
	// runner. 0 means max(8, ⌈clients/8⌉), i.e. 2 to 8 domains (see
	// DomainSize). The domain count is a pure function of (group size,
	// DomainClients) — never of SimWorkers — so digests stay bit-identical
	// at any worker count. Small domains are the million-client tier's
	// execution mode: per-domain state is O(n/K), so no single engine ever
	// materialises the full group. A group that fits one domain runs as one
	// shard with a "domain mode: …" SerialReason.
	DomainClients int
	// Check is CheckStrict (the default) or CheckOff, which disables the
	// runtime invariant oracle (see CheckMode). The oracle shadows the
	// session's per-(client, seq) state machine event by event; it draws no
	// randomness and never perturbs a run's outcome.
	Check CheckMode
}

// DefaultConfig returns the configuration used by the reproduction
// experiments: 100 packets, 50 ms apart, immediate detection.
func DefaultConfig() Config {
	return Config{Packets: 100, Interval: 50, DetectLag: 0}
}

// maxJitter is the largest Config.Jitter a session accepts.
const maxJitter = 1000

// validate rejects a configuration the session cannot simulate: a NaN or
// infinite float field, a non-positive Packets or Interval, a negative
// DetectLag, SimWorkers or DomainClients, a Jitter outside [0, maxJitter], a Detection
// or Check outside its constants, or a program whose last instant — the
// last send, plus DetectLag, plus the tail sweep's or one heartbeat's wait
// — is not finite.
// A negative PacketTime keeps meaning "off".
func (c Config) validate() error {
	last := float64(c.Packets-1)*c.Interval + c.DetectLag
	switch c.Detection {
	case DetectGap:
		last += c.tailLag()
	case DetectSession:
		last += max(c.tailLag(), c.heartbeat())
	}
	for _, f := range []struct {
		name string
		v    float64
		ok   bool
	}{
		{"Packets", float64(c.Packets), c.Packets > 0},
		{"Interval", c.Interval, c.Interval > 0},
		{"DetectLag", c.DetectLag, c.DetectLag >= 0},
		{"Jitter", c.Jitter, c.Jitter >= 0 && c.Jitter <= maxJitter},
		{"PacketTime", c.PacketTime, true},
		{"SimWorkers", float64(c.SimWorkers), c.SimWorkers >= 0},
		{"DomainClients", float64(c.DomainClients), c.DomainClients >= 0},
		{"Detection", float64(c.Detection), c.Detection <= DetectSession},
		{"Check", float64(c.Check), c.Check <= CheckOff},
		{"the program's last instant", last, true},
	} {
		if !f.ok || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("protocol: bad config: %s = %v", f.name, f.v)
		}
	}
	return nil
}

// tailLag is the extra wait, after the last packet's loss-free arrival,
// before tail losses are declared under DetectGap and DetectSession.
func (c Config) tailLag() float64 { return 2 * c.Interval }

// heartbeat is the session-message period under DetectSession.
func (c Config) heartbeat() float64 { return 4 * c.Interval }

// detectEps orders loss-detection checks after same-instant deliveries.
const detectEps = 1e-3

// heartbeat is the payload of a session message (DetectSession): every
// sequence up to Highest has been transmitted.
type heartbeat struct {
	Highest int
}

// Session is one simulation run of one protocol over one network.
type Session struct {
	Eng    *sim.Engine
	Net    *sim.Net
	Topo   *topology.Network
	Tree   *mtree.Tree
	Routes route.Router
	// Rand is the protocol-side randomness stream (timer jitter), split
	// from the network's loss stream so protocols with different draw
	// counts still see identical link fates under one seed.
	Rand *rng.Rand

	cfg    Config
	engine Engine
	// netRand is the net's loss stream and root the root stream left after
	// the session's own splits: a sharded run hands netRand to the source's
	// domain and splits one stream per domain from root.
	netRand, root *rng.Rand

	// Trace, when set before Run, receives structured events for every
	// send, delivery, drop, detection, and recovery.
	Trace trace.Tracer

	// clientIdx maps a NodeID to its index in Topo.Clients, -1 for
	// non-clients; built once and shared read-only with shard sub-sessions.
	clientIdx []int32
	// rows holds each client's ground truth, index-aligned with
	// Topo.Clients. A shard sub-session allocates only the rows of the
	// clients it owns; the others stay nil, so an ownership violation
	// faults loudly. A run that shards drops the coordinator's own rows.
	rows   []*clientRow
	sentAt []float64 // source send time per seq

	latHist *metrics.Histogram
	stats   Stats

	// oracle is the runtime invariant checker (nil under CheckOff);
	// numNodes caches the topology size for per-packet header validation.
	oracle   *check.Oracle
	numNodes int

	// latLog, when enabled, records every recovery-latency observation with
	// its event time. Welford's update is order-dependent, so a sharded run
	// replays the per-domain logs in global time order to reproduce the
	// one-shard Stats.Latency bit-for-bit (see parallel.go). Off — and
	// costless — in one-shard runs.
	latLogOn bool
	latLog   []latSample

	// coded is the coded-recovery ground truth (nil unless the attached
	// engine called EnableCodedRecovery): per (client, block), the set of
	// distinct coded symbols held, mirrored independently by the oracle.
	coded *codedRecovery

	// failover marks a session whose engine runs the epoch-fenced
	// coordinator mode (EnableFailover); serialReason records why a
	// SimWorkers ≥ 2 run was laid out as one shard (see parallel.go).
	failover     bool
	serialReason string
}

// clientRow is one client's ground truth: which packets it holds, when it
// detected each loss, its recovery latency and, under gap detection, the
// next sequence it expects. It also holds the client's open recoveries
// (recovery.go), which only the owning domain allocates.
type clientRow struct {
	received []bool    // [seq]
	detectAt []float64 // [seq]; NaN = not (yet) detected
	// latency accumulates the client's recovery latency, for per-client
	// model validation.
	latency metrics.Summary
	nextExp int
	recs    []*Recovery // ascending Seq
}

func newClientRow(packets int) *clientRow {
	r := &clientRow{received: make([]bool, packets), detectAt: make([]float64, packets)}
	for seq := range r.detectAt {
		r.detectAt[seq] = math.NaN()
	}
	return r
}

// codedRecovery holds the session-owned coded-symbol state: blocks of k
// data packets protected by r coded symbols, and per (client, block) the
// bitmask of coded indices held. The bitmask IS the idempotency mechanism:
// a redundant symbol sets no new bit, so duplicated or reordered symbol
// deliveries cannot double-count (the symbol-plane equivalent of the
// engines' DedupCache).
type codedRecovery struct {
	k, r, blocks int
	sets         [][]uint64 // [clientIdx][block]
}

// latSample is one recovery-latency observation stamped with its event time.
type latSample struct {
	at, lat float64
}

// Stats aggregates the per-run outcome counters.
type Stats struct {
	// Losses counts detected (client, seq) gaps.
	Losses int64
	// Recoveries counts gaps subsequently filled by a repair.
	Recoveries int64
	// Unrecovered counts gaps still open when the run ends (should be 0).
	Unrecovered int64
	// Duplicates counts repairs delivered to hosts that already had the
	// packet — pure overhead (SRM floods produce many).
	Duplicates int64
	// PreDetection counts repairs that filled a gap before the client
	// even detected it (possible when another client recovers first and
	// the repair is multicast); these never become Losses/Recoveries.
	PreDetection int64
	// DataDeliveries counts original data receptions.
	DataDeliveries int64
	// LateData counts data packets that arrived after the client had
	// already declared them lost (possible only under queueing, where
	// true arrival can trail the idealised detector). Such gaps close
	// without counting as Recoveries.
	LateData int64
	// UnrecoveredCrashed counts packets missing at clients that were down
	// (crashed) when the run ended. Under fault injection these are the
	// expected cost of a crash, not a protocol failure, so they are kept
	// out of Unrecovered — which remains the liveness-violation counter.
	UnrecoveredCrashed int64
	// Delivered counts (client, seq) pairs held when the run ended, however
	// obtained (original transmission, repair, or local decode).
	Delivered int64
	// Malformed counts packets rejected by validation — out-of-range
	// header fields caught by the session, or unparseable payloads caught
	// by the engines. Non-zero only under the message-plane mutator (or a
	// protocol bug).
	Malformed int64
	// CodedSymbols counts distinct coded repair symbols credited toward
	// block decodes; CodedDuplicates counts redundant copies absorbed
	// idempotently. Both are zero unless the engine uses coded recovery.
	CodedSymbols    int64
	CodedDuplicates int64
	// Failovers counts RP re-elections: coordinator claims for epochs past
	// the bootstrap epoch. FencedStale counts control messages rejected by
	// the epoch fence (stale-epoch requests or announces). Both are zero
	// unless the engine runs the epoch-fenced failover mode.
	Failovers   int64
	FencedStale int64
	// Latency summarises per-recovery delay (detection → repair), ms.
	Latency metrics.Summary
}

// Result is the full outcome of a run.
type Result struct {
	Protocol string
	Clients  int
	Packets  int
	Stats    Stats
	Hops     sim.HopCount
	Drops    sim.HopCount
	Events   uint64
	SimTime  float64
	// LatencyHist is the per-recovery latency distribution (ms).
	LatencyHist *metrics.Histogram
	// PerClientLatency maps each client to its recovery-latency summary
	// (clients with no recoveries have empty summaries).
	PerClientLatency map[graph.NodeID]metrics.Summary
	// Complete is false if the run hit MaxEvents before quiescing.
	Complete bool
	// Sharded reports whether the run executed as more than one recovery
	// domain. SerialReason, set only when Config.SimWorkers requested
	// sharding but the run was laid out as one shard — the serial run —
	// names the first eligibility condition that failed (see
	// parallelEligible), so users stop guessing why -simworkers made no
	// difference.
	Sharded      bool
	SerialReason string
	// Domains is the recovery-domain count of a sharded run (0 for one-shard
	// runs; see Config.DomainClients) — execution metadata, deliberately
	// outside the result digest: a domain run must hash identically to its
	// serial twin.
	Domains int
	// Violations lists the end-of-run liveness and conservation findings of
	// the invariant oracle (nil on a clean run; an event-level safety
	// finding panics instead). The experiment harness treats a non-empty
	// list as a failed run.
	Violations []string
}

// LatencyQuantile estimates the q-quantile of per-recovery latency (ms).
func (r *Result) LatencyQuantile(q float64) float64 {
	if r.LatencyHist == nil {
		return 0
	}
	return r.LatencyHist.Quantile(q)
}

// AvgLatency returns the mean recovery latency in ms (0 when no recovery
// happened).
func (r *Result) AvgLatency() float64 { return r.Stats.Latency.Mean() }

// DeliveryRatio returns the fraction of (client, packet) pairs delivered by
// the end of the run — 1.0 in the paper's reliable-network model, lower
// under fault injection when crashed clients miss packets for good.
func (r *Result) DeliveryRatio() float64 {
	total := int64(r.Clients) * int64(r.Packets)
	if total == 0 {
		return 0
	}
	return float64(r.Stats.Delivered) / float64(total)
}

// BandwidthPerRecovery returns retransmission hops per recovery — the
// paper's "average bandwidth usage per packet recovered (hops)". The paper
// counts the repair (retransmission) traffic only: §5.2 argues SRM's
// per-packet recovery bandwidth is *fixed* because its retransmission is a
// whole-tree multicast, which is only true when NACK traffic is excluded.
// Request traffic is reported separately by RequestHopsPerRecovery.
func (r *Result) BandwidthPerRecovery() float64 {
	if r.Stats.Recoveries == 0 {
		return 0
	}
	return float64(r.Hops.Repair) / float64(r.Stats.Recoveries)
}

// RequestHopsPerRecovery returns request/NACK hops per recovery — the part
// of recovery bandwidth the paper's figures leave out.
func (r *Result) RequestHopsPerRecovery() float64 {
	if r.Stats.Recoveries == 0 {
		return 0
	}
	return float64(r.Hops.Request) / float64(r.Stats.Recoveries)
}

// TotalRecoveryHopsPerRecovery returns all recovery-traffic hops (requests
// plus repairs) per recovery — the harsher end-to-end bandwidth measure.
func (r *Result) TotalRecoveryHopsPerRecovery() float64 {
	if r.Stats.Recoveries == 0 {
		return 0
	}
	return float64(r.Hops.Recovery()) / float64(r.Stats.Recoveries)
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: clients=%d losses=%d recovered=%d avgLat=%.2fms bw=%.2fhops dup=%d",
		r.Protocol, r.Clients, r.Stats.Losses, r.Stats.Recoveries,
		r.AvgLatency(), r.BandwidthPerRecovery(), r.Stats.Duplicates)
}

// NewSession assembles a session over topo with the given protocol engine,
// using the omniscient routing oracle. All randomness derives from seed.
func NewSession(topo *topology.Network, engine Engine, cfg Config, seed uint64) (*Session, error) {
	tree, err := mtree.Build(topo)
	if err != nil {
		return nil, err
	}
	return NewSessionPrebuilt(topo, tree, engine, cfg, seed, nil)
}

// NewSessionPrebuilt assembles a session from a caller-built multicast tree
// (mtree.Build) and routing substrate: route.Build's oracle, or e.g.
// internal/lsr's converged link-state routing, whose delay estimates carry
// measurement noise; nil means route.Build over topo. The sweeps build one
// tree and router per network and share them across its cells, which run on
// copies of the tree's topology that differ only in Loss.
func NewSessionPrebuilt(topo *topology.Network, tree *mtree.Tree, engine Engine, cfg Config, seed uint64, routes route.Router) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Every caller's schedule is checked, an empty one too: its mutation
	// config must be valid even when it mutates nothing.
	if err := cfg.Fault.Validate(topo.NumNodes(), len(topo.Loss)); err != nil {
		return nil, err
	}
	// Role-aware validation: the source may never crash (the liveness
	// invariant is conditioned on it staying up).
	if err := cfg.Fault.ValidateRoles(topo.Source); err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	root := rng.New(seed)
	netRand := root.Split()
	protoRand := root.Split()
	eng := sim.NewEngine()
	if routes == nil {
		routes = route.Build(topo)
	} else {
		routes.Prepare(topo.Source)
		for _, c := range topo.Clients {
			routes.Prepare(c)
		}
	}
	net := sim.NewNet(eng, topo, tree, routes, netRand)
	net.ControlLoss = cfg.LossyRecovery
	net.Jitter = cfg.Jitter
	if cfg.PacketTime > 0 {
		net.Queue = sim.NewQueueModel(cfg.PacketTime, topo.G.NumEdges())
	}
	if !cfg.Fault.Empty() {
		net.InstallFault(fault.NewState(cfg.Fault, root.Split()))
	}
	s := &Session{
		Eng:       eng,
		Net:       net,
		Topo:      topo,
		Tree:      tree,
		Routes:    routes,
		Rand:      protoRand,
		cfg:       cfg,
		engine:    engine,
		netRand:   netRand,
		root:      root,
		clientIdx: make([]int32, topo.NumNodes()),
		rows:      make([]*clientRow, len(topo.Clients)),
		sentAt:    make([]float64, cfg.Packets),
		latHist:   metrics.NewHistogram(0, 5000, 500),
		numNodes:  topo.NumNodes(),
	}
	if cfg.Check != CheckOff {
		s.oracle = check.New(len(topo.Clients), cfg.Packets)
	}
	for seq := range s.sentAt {
		s.sentAt[seq] = float64(seq) * cfg.Interval
	}
	for n := range s.clientIdx {
		s.clientIdx[n] = -1
	}
	for i, c := range topo.Clients {
		s.clientIdx[c] = int32(i)
		s.rows[i] = newClientRow(cfg.Packets)
	}
	s.attach()
	return s, nil
}

// attach wires the session's engine to its net: the session is the net's
// receiver (every host feeds deliveries through onDeliver), then the
// engine's Attach, then its crash/recover hooks. A session and every domain
// of a sharded run are wired here; a domain's net hands it deliveries for
// the hosts it owns only.
func (s *Session) attach() {
	s.Net.Deliver = s.onDeliver
	s.engine.Attach(s)
	if fa, ok := s.engine.(FaultAware); ok {
		s.Net.OnCrash, s.Net.OnRecover = fa.OnCrash, fa.OnRecover
	}
}

// Alive reports whether a host is up at the current simulation time (always
// true without a fault model).
func (s *Session) Alive(h graph.NodeID) bool {
	return s.Net.Fault == nil || s.Net.Fault.HostUpAt(h, s.Eng.Now())
}

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// Clients returns the group members.
func (s *Session) Clients() []graph.NodeID { return s.Topo.Clients }

// IsClient reports group membership.
func (s *Session) IsClient(n graph.NodeID) bool { return s.Topo.IsClient(n) }

// Has reports whether host holds packet seq. The source holds every packet
// it has sent (and, conservatively, every packet of the stream — recovery
// requests only ever concern sent packets).
func (s *Session) Has(host graph.NodeID, seq int) bool {
	if host == s.Topo.Source {
		return true
	}
	idx := s.clientIndex(host)
	if idx < 0 {
		return false
	}
	return s.rows[idx].received[seq]
}

// clientIndex returns host's index in Topo.Clients, or -1 for a non-client.
func (s *Session) clientIndex(host graph.NodeID) int {
	if uint(host) >= uint(len(s.clientIdx)) {
		return -1
	}
	return int(s.clientIdx[host])
}

// Missing reports whether client c is a group member that detected the loss
// of seq and has not recovered it yet.
func (s *Session) Missing(c graph.NodeID, seq int) bool {
	idx := s.clientIndex(c)
	if idx < 0 {
		return false
	}
	r := s.rows[idx]
	return !r.received[seq] && !math.IsNaN(r.detectAt[seq])
}

// onDeliver is the single choke point for every packet arriving at a host.
func (s *Session) onDeliver(host graph.NodeID, pkt sim.Packet) {
	// Control-plane header validation: recovery traffic only ever concerns
	// sent sequence numbers and real hosts, so out-of-range fields — the
	// mutator's corruption, by construction detectable — are rejected here,
	// before any bookkeeping or engine state can be touched. Payloads are
	// validated by the engines, which own their types.
	if pkt.Kind != sim.Data &&
		(pkt.Seq < 0 || pkt.Seq >= s.cfg.Packets || pkt.From < 0 || int(pkt.From) >= s.numNodes) {
		s.NoteMalformed()
		return
	}
	switch pkt.Kind {
	case sim.Data:
		if pkt.Seq < 0 || pkt.Seq >= s.cfg.Packets {
			if hb, ok := pkt.Payload.(heartbeat); ok {
				// Session message: every packet up to Highest has been
				// sent; anything not received is now a known gap.
				if idx := s.clientIndex(host); idx >= 0 {
					r := s.rows[idx]
					for seq := r.nextExp; seq <= hb.Highest; seq++ {
						s.detectLoss(idx, host, seq)
					}
					if hb.Highest+1 > r.nextExp {
						r.nextExp = hb.Highest + 1
					}
				}
				return
			}
			// Auxiliary data-plane packets (e.g. FEC parity): not part of
			// the reliable sequence space; routed to the engine, subject
			// to data-plane loss like any data packet.
			s.engine.OnPacket(host, pkt)
			return
		}
		if idx := s.clientIndex(host); idx >= 0 {
			r := s.rows[idx]
			if s.oracle != nil {
				s.oracle.OnData(idx, pkt.Seq,
					r.received[pkt.Seq], !math.IsNaN(r.detectAt[pkt.Seq]))
			}
			if !r.received[pkt.Seq] {
				r.received[pkt.Seq] = true
				s.stats.DataDeliveries++
				if !math.IsNaN(r.detectAt[pkt.Seq]) {
					s.stats.LateData++
				}
				s.emit(trace.Event{At: s.Eng.Now(), Kind: trace.RecvData,
					Node: int32(host), Peer: -1, Seq: pkt.Seq})
			}
			if s.cfg.Detection == DetectGap || s.cfg.Detection == DetectSession {
				s.gapScan(idx, host, pkt.Seq)
			}
		}
	case sim.Repair:
		// A repair payload is either absent, a coded symbol, or mutator
		// garbage (symbol truncation): garbage is rejected here because no
		// engine emits payload-less garbage repairs, so the usual engine-side
		// payload validation would otherwise credit the packet as a plain
		// repair of its (valid-looking) header sequence.
		if _, bad := pkt.Payload.(sim.Garbage); bad {
			s.NoteMalformed()
			return
		}
		if sym, ok := pkt.Payload.(sim.Symbol); ok {
			s.onSymbol(host, pkt, sym)
			return
		}
		if idx := s.clientIndex(host); idx >= 0 {
			s.repairArrival(idx, host, pkt)
		} else if s.oracle != nil {
			// Repairs crossing non-client hosts (e.g. the source seeing an
			// SRM flood) still carry the never-sent-seq invariant.
			s.oracle.OnRepair(-1, pkt.Seq, false, false)
		}
		s.engine.OnPacket(host, pkt)
	case sim.Request:
		s.engine.OnPacket(host, pkt)
	}
}

// repairArrival applies the per-(client, seq) bookkeeping of one repair
// delivery — shared by plain repairs and systematic coded symbols, which
// carry a data sequence verbatim.
func (s *Session) repairArrival(idx int, host graph.NodeID, pkt sim.Packet) {
	r := s.rows[idx]
	if s.oracle != nil {
		s.oracle.OnRepair(idx, pkt.Seq,
			r.received[pkt.Seq], !math.IsNaN(r.detectAt[pkt.Seq]))
	}
	switch {
	case r.received[pkt.Seq]:
		s.stats.Duplicates++
	case math.IsNaN(r.detectAt[pkt.Seq]):
		// Repaired before the gap was even noticed.
		r.received[pkt.Seq] = true
		s.stats.PreDetection++
	default:
		r.received[pkt.Seq] = true
		s.stats.Recoveries++
		s.recordLatency(r, s.Eng.Now()-r.detectAt[pkt.Seq])
		s.emit(trace.Event{At: s.Eng.Now(), Kind: trace.Recover,
			Node: int32(host), Peer: int32(pkt.From), Seq: pkt.Seq})
	}
}

// onSymbol is the delivery path for coded repair symbols: validate against
// the enabled coded-recovery geometry (anything out of domain — including
// the mutator's index flips and truncations — is malformed), then credit a
// systematic symbol as a plain repair of its sequence or a coded symbol as
// one unit of the block's decode rank, idempotently. The engine sees the
// packet afterwards to attempt a decode.
func (s *Session) onSymbol(host graph.NodeID, pkt sim.Packet, sym sim.Symbol) {
	cr := s.coded
	if cr == nil {
		// A symbol in a run whose engine never enabled coded recovery is
		// junk by definition.
		s.NoteMalformed()
		return
	}
	b, si := int(sym.Block), int(sym.Index)
	if b < 0 || b >= cr.blocks || si < 0 || si >= cr.k+cr.r {
		s.NoteMalformed()
		return
	}
	lo := b * cr.k
	bl := s.blockLen(b)
	idx := s.clientIndex(host)
	if idx < 0 {
		// Symbols are unicast to requesting clients; a copy reaching a
		// non-client host is inert.
		return
	}
	if si < cr.k {
		// Systematic symbol: carries data sequence lo+si verbatim. The
		// header sequence must agree (padding indices of a short tail
		// block name no data and are likewise invalid).
		if si >= bl || pkt.Seq != lo+si {
			s.NoteMalformed()
			return
		}
		s.repairArrival(idx, host, pkt)
		s.engine.OnPacket(host, pkt)
		return
	}
	j := si - cr.k
	dup := cr.sets[idx][b]&(1<<uint(j)) != 0
	if s.oracle != nil {
		s.oracle.OnSymbol(idx, b, j, dup)
	}
	if dup {
		s.stats.CodedDuplicates++
	} else {
		cr.sets[idx][b] |= 1 << uint(j)
		s.stats.CodedSymbols++
	}
	s.engine.OnPacket(host, pkt)
}

// EnableCodedRecovery switches the session (and its oracle) into coded-
// recovery mode: the data stream is viewed as blocks of k packets, each
// protected by r coded symbols, with k and r in [1, 64] so a block's
// symbol set fits one machine word. Engines call it from Attach; calling
// it twice with different geometry is an error.
func (s *Session) EnableCodedRecovery(k, r int) error {
	if k < 1 || k > 64 || r < 1 || r > 64 {
		return fmt.Errorf("protocol: coded geometry out of range (k=%d, r=%d)", k, r)
	}
	if s.coded != nil {
		if s.coded.k != k || s.coded.r != r {
			return fmt.Errorf("protocol: coded recovery reconfigured (k %d→%d, r %d→%d)",
				s.coded.k, k, s.coded.r, r)
		}
		return nil
	}
	blocks := (s.cfg.Packets + k - 1) / k
	cr := &codedRecovery{k: k, r: r, blocks: blocks,
		sets: make([][]uint64, len(s.Topo.Clients))}
	for i := range cr.sets {
		if s.rows[i] != nil { // a shard holds only its own clients' rows
			cr.sets[i] = make([]uint64, blocks)
		}
	}
	s.coded = cr
	if s.oracle != nil {
		s.oracle.EnableCoded(k, r)
	}
	return nil
}

// CodedBlocks returns the block count of the enabled coded-recovery
// geometry (0 when disabled).
func (s *Session) CodedBlocks() int {
	if s.coded == nil {
		return 0
	}
	return s.coded.blocks
}

// blockLen returns the number of data sequences in block b (the tail block
// may be short).
func (s *Session) blockLen(b int) int {
	lo := b * s.coded.k
	hi := lo + s.coded.k
	if hi > s.cfg.Packets {
		hi = s.cfg.Packets
	}
	return hi - lo
}

// BlockBounds returns the data-sequence range [lo, hi) of block b.
func (s *Session) BlockBounds(b int) (lo, hi int) {
	lo = b * s.coded.k
	hi = lo + s.blockLen(b)
	return lo, hi
}

// BlockRank returns client c's decode rank for block b: data packets held
// plus distinct coded symbols. The block is decodable once the rank
// reaches the block length.
func (s *Session) BlockRank(c graph.NodeID, b int) int {
	idx := s.clientIndex(c)
	if idx < 0 || s.coded == nil {
		return 0
	}
	rank := bits.OnesCount64(s.coded.sets[idx][b])
	lo, hi := s.BlockBounds(b)
	for seq := lo; seq < hi; seq++ {
		if s.rows[idx].received[seq] {
			rank++
		}
	}
	return rank
}

// CodedHeld returns the bitmask of coded symbol indices client c holds for
// block b.
func (s *Session) CodedHeld(c graph.NodeID, b int) uint64 {
	idx := s.clientIndex(c)
	if idx < 0 || s.coded == nil {
		return 0
	}
	return s.coded.sets[idx][b]
}

// DecodeBlock performs client c's erasure decode of block b, recovering
// every data sequence of the block it does not hold (the engine must only
// call it when BlockRank covers the block length — the oracle independently
// verifies the rank and panics on a false decode). Returns
// the number of sequences recovered.
func (s *Session) DecodeBlock(c graph.NodeID, b int) int {
	idx := s.clientIndex(c)
	if idx < 0 || s.coded == nil || b < 0 || b >= s.coded.blocks {
		return 0
	}
	if s.oracle != nil {
		s.oracle.OnDecode(idx, b)
	}
	n := 0
	lo, hi := s.BlockBounds(b)
	for seq := lo; seq < hi; seq++ {
		if !s.rows[idx].received[seq] && s.RecoverLocal(c, seq) {
			n++
		}
	}
	return n
}

// emit forwards a trace event when a tracer is attached.
func (s *Session) emit(e trace.Event) {
	if s.Trace != nil {
		s.Trace.Emit(e)
	}
}

// Engine-event opcodes for the typed, closure-free callbacks the session
// schedules on hot paths (see sim.Callee): one per data packet sent, one
// per (client, packet) idealised loss detection, one per heartbeat.
const (
	opSendData = iota
	opDetect
	opHeartbeat
)

// OnSimEvent implements sim.Callee: the session's per-packet events ride in
// typed engine events instead of allocating a closure each.
func (s *Session) OnSimEvent(op, a, b int) {
	switch op {
	case opSendData:
		seq := a
		if s.oracle != nil {
			s.oracle.OnSent(seq)
		}
		s.emit(trace.Event{At: s.Eng.Now(), Kind: trace.SendData,
			Node: int32(s.Topo.Source), Peer: -1, Seq: seq})
		s.Net.MulticastFromSource(sim.Packet{Kind: sim.Data, Seq: seq, From: s.Topo.Source})
	case opDetect:
		i, seq := a, b
		s.detectLoss(i, s.Topo.Clients[i], seq)
	case opHeartbeat:
		s.Net.MulticastFromSource(sim.Packet{
			Kind: sim.Data, Seq: -1, From: s.Topo.Source,
			Payload: heartbeat{Highest: a},
		})
	}
}

// detectLoss records and dispatches one loss detection (idempotent). A
// client that is crashed at the detection instant cannot observe the gap:
// detection is deferred to its recovery time — the recover hook, scheduled
// earlier, fires first — or suppressed entirely for a permanent crash, in
// which case the gap surfaces as UnrecoveredCrashed.
func (s *Session) detectLoss(i int, c graph.NodeID, seq int) {
	r := s.rows[i]
	if r.received[seq] || !math.IsNaN(r.detectAt[seq]) {
		return
	}
	if f := s.Net.Fault; f != nil {
		if until := f.HostDownUntil(c, s.Eng.Now()); !math.IsNaN(until) {
			if !math.IsInf(until, 1) {
				s.Eng.ScheduleCall(until, s, opDetect, i, seq)
			}
			return
		}
	}
	r.detectAt[seq] = s.Eng.Now()
	s.stats.Losses++
	if s.oracle != nil {
		s.oracle.OnDetect(i, seq)
	}
	s.emit(trace.Event{At: s.Eng.Now(), Kind: trace.Detect,
		Node: int32(c), Peer: -1, Seq: seq})
	s.engine.OnDetect(c, seq)
}

// gapScan performs sequence-gap detection at a client that just received
// data packet seq: every undelivered packet below it is now known missing.
func (s *Session) gapScan(idx int, c graph.NodeID, seq int) {
	r := s.rows[idx]
	if seq < r.nextExp {
		return
	}
	for s2 := r.nextExp; s2 < seq; s2++ {
		s.detectLoss(idx, c, s2)
	}
	r.nextExp = seq + 1
}

// ExpectedArrival returns the loss-free arrival time of packet seq at a
// host: its send time plus the tree-path delay. Before this instant the
// host cannot distinguish "lost" from "still in transit" — protocol engines
// use it to hold recovery requests for data a peer still expects (see
// rpproto's onRequest).
func (s *Session) ExpectedArrival(host graph.NodeID, seq int) float64 {
	return s.sentAt[seq] + s.Net.WouldArrive(host)
}

// RecoverLocal marks packet seq as recovered at client c by local
// computation (e.g. an FEC decode) at the current simulation time, with the
// same bookkeeping as a repair arrival but no network traffic. It returns
// false if c already holds the packet (or is not a client).
func (s *Session) RecoverLocal(c graph.NodeID, seq int) bool {
	idx := s.clientIndex(c)
	if idx < 0 {
		return false
	}
	r := s.rows[idx]
	if r.received[seq] {
		return false
	}
	if s.oracle != nil {
		s.oracle.OnLocalRecover(idx, seq, !math.IsNaN(r.detectAt[seq]))
	}
	r.received[seq] = true
	if math.IsNaN(r.detectAt[seq]) {
		s.stats.PreDetection++
		return true
	}
	s.stats.Recoveries++
	s.recordLatency(r, s.Eng.Now()-r.detectAt[seq])
	s.emit(trace.Event{At: s.Eng.Now(), Kind: trace.Recover,
		Node: int32(c), Peer: int32(c), Seq: seq})
	return true
}

// recordLatency folds one recovery latency into every accumulator, logging
// it when the parallel runner needs an order-independent record.
func (s *Session) recordLatency(r *clientRow, lat float64) {
	s.stats.Latency.Add(lat)
	s.latHist.Add(lat)
	r.latency.Add(lat)
	if s.latLogOn {
		s.latLog = append(s.latLog, latSample{at: s.Eng.Now(), lat: lat})
	}
}

// NoteMalformed counts one rejected malformed packet. The session calls it
// for out-of-range header fields; engines call it from their payload
// validation when a packet parses to nothing they recognise.
func (s *Session) NoteMalformed() {
	s.stats.Malformed++
	if s.oracle != nil {
		s.oracle.OnMalformed()
	}
}

// EnableFailover switches the session (and its oracle) into epoch-fenced
// coordinator mode. Engines call it from Attach; the oracle then enforces
// the failover invariants — at most one coordinator claim per epoch, epoch
// monotonicity per host — independently of the engine's own guards.
func (s *Session) EnableFailover() {
	if s.failover {
		return
	}
	s.failover = true
	if s.oracle != nil {
		s.oracle.EnableFailover(s.numNodes)
	}
}

// NoteRPClaim records a coordinator claiming an epoch: the bootstrap
// designation (epoch 1) is free; every later claim is a failover. The oracle
// independently asserts claim uniqueness and freshness.
func (s *Session) NoteRPClaim(epoch int, rp graph.NodeID) {
	if epoch > 1 {
		s.stats.Failovers++
	}
	if s.oracle != nil {
		s.oracle.OnRPClaim(epoch, int(rp))
	}
}

// NoteEpochAdopt records host h adopting (epoch, rp) as its coordinator
// view. The oracle asserts per-host epoch monotonicity and that the adopted
// view matches the epoch's claimed coordinator.
func (s *Session) NoteEpochAdopt(h graph.NodeID, epoch int, rp graph.NodeID) {
	if s.oracle != nil {
		s.oracle.OnEpochAdopt(int(h), epoch, int(rp))
	}
}

// NoteFencedStale counts one control message rejected by the epoch fence.
func (s *Session) NoteFencedStale() {
	s.stats.FencedStale++
	if s.oracle != nil {
		s.oracle.OnFenced()
	}
}
