// Package check is the runtime invariant oracle: an independent shadow of
// the session's per-(client, seq) delivery state machine, updated event by
// event during every run and cross-checked against the session's own
// bookkeeping at the end.
//
// The oracle exists because the adversarial message plane (fault.Mutator)
// attacks exactly the assumptions the accounting was built on: duplicated
// repairs must not be counted as two recoveries, corrupted packets must
// never reach protocol state, reordering must not re-open a recovered gap.
// Rather than trusting the session to police itself, the oracle maintains
// its own monotonic state machine per (client, seq) —
//
//	unsent → sent → {delivered | detected → recovered}
//
// — and treats any divergence between that machine and what the session
// reports as a safety violation. Liveness (every live client's gap is
// eventually recovered or explicitly classified) and conservation (the
// counters partition the observed events; drops never exceed hops) are
// checked once the run quiesces.
//
// Safety violations at event granularity panic: they mean the simulator's
// books are wrong, and continuing would only launder the corruption into
// results. End-of-run findings (liveness, conservation) are returned as a
// violation list instead — some callers run sessions that violate liveness
// on purpose (e.g. a null engine that never repairs) and assert on the
// classified outcome.
// The coded-recovery mode (EnableCoded) extends the shadow machine for
// engines that repair by erasure coding rather than per-seq retransmission:
// a detected gap may then be closed by *any* sufficient set of symbols, so
// the oracle additionally tracks, per (client, block), the set of distinct
// coded symbols held, and admits a decode event only when the block's
// symbol rank — data packets held plus distinct coded symbols — reaches the
// block length. A decode below rank, a double decode, an out-of-range
// symbol index, or a duplicate-verdict mismatch between session and oracle
// are safety violations like any other.
//
// The oracle is sized to run at every group size, the million-client cell
// included. Its shadow state is one row pointer per client, as in the
// session: a row holds the client's have and detected flags and, in coded
// mode, its symbol sets and decode flags. A
// shard oracle of a partitioned run (NewShard) allocates rows only for the
// clients its domain owns — the others stay nil, so a misrouted event
// faults — and the master that absorbs the shards takes their rows over one
// pointer per client.
package check

import (
	"fmt"
	"math/bits"
)

// maxViolations bounds the recorded list; a broken run repeats itself.
const maxViolations = 64

// Totals is the session's end-of-run accounting handed to Finish for
// cross-checking against the oracle's independent counts.
type Totals struct {
	Losses, Recoveries, Duplicates, PreDetection int64
	DataDeliveries, LateData, Malformed          int64
	Delivered, Unrecovered, UnrecoveredCrashed   int64
	DataHops, RequestHops, RepairHops            int64
	DataDrops, RequestDrops, RepairDrops         int64
	// CodedSymbols / CodedDuplicates are only cross-checked in coded-
	// recovery mode (EnableCoded): distinct coded symbols credited, and
	// redundant copies absorbed idempotently.
	CodedSymbols, CodedDuplicates int64
	// Failovers / FencedStale are only cross-checked in failover mode
	// (EnableFailover): RP epoch claims past the bootstrap epoch, and
	// control messages rejected by the epoch fence.
	Failovers, FencedStale int64
}

// codedState is the coded-recovery configuration: blocks of k data packets
// protected by r coded symbols. The per-(client, block) state lives in the
// client's row.
type codedState struct {
	k, r, blocks int
}

// clientRow is one client's shadow state: which seqs it holds and which
// losses it has detected, and in coded mode, per block, the set of distinct
// coded symbols held (a bitmask — R ≤ 64 by construction) and whether the
// block has been decoded.
type clientRow struct {
	have, detected []bool   // [seq]
	seen           []uint64 // [block] coded-index bitmask
	decoded        []bool   // [block]
}

func newClientRow(packets int) *clientRow {
	return &clientRow{have: make([]bool, packets), detected: make([]bool, packets)}
}

// Oracle is the shadow state machine for one run. Hooks are O(1); the
// memory is one row pointer per client plus, for each client it owns, two
// flags per seq, plus counters.
type Oracle struct {
	packets int

	sent []bool
	rows []*clientRow // [clientIdx]; nil for a client a shard does not own

	losses, recoveries, duplicates, preDetection int64
	deliveries, lateData, malformed              int64

	coded                  *codedState
	codedSymbols, codedDup int64

	fo *failoverState

	violations []string
}

// New returns an oracle for a run of packets sequence numbers over clients
// group members. Event-level safety violations panic; finish-level findings
// are returned, never thrown.
func New(clients, packets int) *Oracle {
	o := newOracle(clients, packets, make([]bool, packets))
	for i := range o.rows {
		o.rows[i] = newClientRow(packets)
	}
	return o
}

// NewShard returns an oracle for one shard of a partitioned run. It holds
// shadow rows only for the clients the shard owns; the other rows stay nil,
// so an event routed to the wrong shard faults loudly. The sent vector is
// the caller's, shared by every sibling shard and by the master that later
// absorbs them (a master owns no rows until Absorb hands it the shards').
// Only the source's shard writes it — through OnSent — and the parallel
// runner's window barriers order every cross-shard read after the write,
// because a remote shard can only observe seq at least one lookahead after
// the multicast.
func NewShard(clients, packets int, sent []bool, owned []int) *Oracle {
	o := newOracle(clients, packets, sent)
	for _, ci := range owned {
		o.rows[ci] = newClientRow(packets)
	}
	return o
}

// newOracle returns an oracle with no shadow rows yet.
func newOracle(clients, packets int, sent []bool) *Oracle {
	return &Oracle{
		packets: packets,
		sent:    sent,
		rows:    make([]*clientRow, clients),
	}
}

// Absorb folds a shard oracle into o: it takes over the shadow rows the
// shard holds — those of the clients it owns, disjoint across shards; the
// shard is spent afterwards — and adds its event counters. A shard records
// no violations of its own: event-level ones panic, and only the master
// finishes. After absorbing every shard, o.Finish checks the same global
// invariants a serial oracle would.
func (o *Oracle) Absorb(sh *Oracle) {
	if sh.coded != nil && o.coded == nil {
		// Shards enable coded mode when their engine clone attaches; the
		// master inherits the configuration from the first coded shard.
		o.EnableCoded(sh.coded.k, sh.coded.r)
	}
	for ci, r := range sh.rows {
		if r != nil {
			o.rows[ci] = r
		}
	}
	o.losses += sh.losses
	o.recoveries += sh.recoveries
	o.duplicates += sh.duplicates
	o.preDetection += sh.preDetection
	o.deliveries += sh.deliveries
	o.lateData += sh.lateData
	o.malformed += sh.malformed
	if sh.coded != nil {
		o.codedSymbols += sh.codedSymbols
		o.codedDup += sh.codedDup
	}
}

// EnableCoded switches the oracle into coded-recovery mode for blocks of k
// data packets protected by r coded symbols (both in [1, 64]). Idempotent
// for identical parameters; changing parameters mid-run is a violation.
func (o *Oracle) EnableCoded(k, r int) {
	if o.coded != nil {
		if o.coded.k != k || o.coded.r != r {
			o.violate("coded: reconfigured mid-run (k %d→%d, r %d→%d)",
				o.coded.k, k, o.coded.r, r)
		}
		return
	}
	if k < 1 || k > 64 || r < 1 || r > 64 {
		o.violate("coded: parameters out of range (k=%d, r=%d)", k, r)
		return
	}
	blocks := (o.packets + k - 1) / k
	if blocks < 1 {
		blocks = 1
	}
	o.coded = &codedState{k: k, r: r, blocks: blocks}
	for _, row := range o.rows {
		if row != nil {
			row.seen = make([]uint64, blocks)
			row.decoded = make([]bool, blocks)
		}
	}
}

// blockLen returns the number of data sequences in block b (the tail block
// may be short).
func (c *codedState) blockLen(b, packets int) int {
	lo := b * c.k
	hi := lo + c.k
	if hi > packets {
		hi = packets
	}
	return hi - lo
}

// OnSymbol observes the arrival of coded symbol idx (the coded offset, in
// [0, r)) of block at client ci; dup is the session's verdict on whether
// the symbol was already held, shadow-checked against the oracle's own set.
func (o *Oracle) OnSymbol(ci, block, idx int, dup bool) {
	if o.coded == nil {
		o.violate("symbol: coded-recovery mode not enabled")
		return
	}
	if ci < 0 || ci >= len(o.rows) || block < 0 || block >= o.coded.blocks {
		o.violate("symbol: out-of-range client %d block %d", ci, block)
		return
	}
	if idx < 0 || idx >= o.coded.r {
		o.violate("symbol: client %d block %d: coded index %d outside [0,%d)",
			ci, block, idx, o.coded.r)
		return
	}
	row := o.rows[ci]
	bit := uint64(1) << uint(idx)
	held := row.seen[block]&bit != 0
	if held != dup {
		o.violate("symbol: client %d block %d index %d: session dup=%v, oracle dup=%v",
			ci, block, idx, dup, held)
	}
	if held {
		o.codedDup++
		return
	}
	row.seen[block] |= bit
	o.codedSymbols++
}

// OnDecode observes client ci decoding block: admissible only once per
// (client, block), and only when the block's symbol rank — data packets
// held plus distinct coded symbols — covers the block length. The session
// recovers the missing sequences immediately afterwards through
// OnLocalRecover, so rank is evaluated on the pre-decode state.
func (o *Oracle) OnDecode(ci, block int) {
	if o.coded == nil {
		o.violate("decode: coded-recovery mode not enabled")
		return
	}
	if ci < 0 || ci >= len(o.rows) || block < 0 || block >= o.coded.blocks {
		o.violate("decode: out-of-range client %d block %d", ci, block)
		return
	}
	row := o.rows[ci]
	if row.decoded[block] {
		o.violate("decode: client %d decoded block %d twice", ci, block)
		return
	}
	bl := o.coded.blockLen(block, o.packets)
	rank := bits.OnesCount64(row.seen[block])
	if rank > o.coded.r {
		o.violate("decode: client %d block %d: %d coded symbols exceed r=%d",
			ci, block, rank, o.coded.r)
	}
	lo := block * o.coded.k
	for s := 0; s < bl; s++ {
		if row.have[lo+s] {
			rank++
		}
	}
	if rank < bl {
		o.violate("decode: client %d block %d: rank %d below block length %d",
			ci, block, rank, bl)
		return
	}
	row.decoded[block] = true
}

// violate reports an event-level safety violation by panicking.
func (o *Oracle) violate(format string, args ...interface{}) {
	panic("check: invariant violated: " + fmt.Sprintf(format, args...))
}

// record appends a violation to the bounded list.
func (o *Oracle) record(msg string) {
	if len(o.violations) < maxViolations {
		o.violations = append(o.violations, msg)
	}
}

// shadow cross-checks the session's view of one (client, seq) pair against
// the oracle's before a transition is applied.
func (o *Oracle) shadow(row *clientRow, ci, seq int, has, det bool, event string) {
	if row.have[seq] != has {
		o.violate("%s: client %d seq %d: session has=%v, oracle has=%v",
			event, ci, seq, has, row.have[seq])
	}
	if row.detected[seq] != det {
		o.violate("%s: client %d seq %d: session detected=%v, oracle detected=%v",
			event, ci, seq, det, row.detected[seq])
	}
}

// inRange validates a client/seq pair (violations here mean a corrupted
// packet slipped past the session's own validation).
func (o *Oracle) inRange(ci, seq int, event string) bool {
	if seq < 0 || seq >= o.packets || ci < 0 || ci >= len(o.rows) {
		o.violate("%s: out-of-range client %d seq %d", event, ci, seq)
		return false
	}
	return true
}

// OnSent observes the source's original multicast of seq.
func (o *Oracle) OnSent(seq int) {
	if seq < 0 || seq >= o.packets {
		o.violate("send: out-of-range seq %d", seq)
		return
	}
	if o.sent[seq] {
		o.violate("send: seq %d multicast twice", seq)
	}
	o.sent[seq] = true
}

// OnData observes an original data arrival of seq at client ci; has/det are
// the session's pre-transition view of the pair.
func (o *Oracle) OnData(ci, seq int, has, det bool) {
	if !o.inRange(ci, seq, "data") {
		return
	}
	if !o.sent[seq] {
		o.violate("data: client %d received never-sent seq %d", ci, seq)
	}
	row := o.rows[ci]
	o.shadow(row, ci, seq, has, det, "data")
	if !row.have[seq] {
		row.have[seq] = true
		o.deliveries++
		if row.detected[seq] {
			o.lateData++
		}
	}
}

// OnRepair observes a repair arrival of seq. ci is the receiving client's
// index, or -1 for a non-client host (only the never-sent invariant applies
// there); has/det are the session's pre-transition view.
func (o *Oracle) OnRepair(ci, seq int, has, det bool) {
	if seq < 0 || seq >= o.packets {
		o.violate("repair: out-of-range seq %d", seq)
		return
	}
	if !o.sent[seq] {
		o.violate("repair for never-sent seq %d", seq)
	}
	if ci < 0 {
		return
	}
	if ci >= len(o.rows) {
		o.violate("repair: out-of-range client %d", ci)
		return
	}
	row := o.rows[ci]
	o.shadow(row, ci, seq, has, det, "repair")
	switch {
	case row.have[seq]:
		// Duplicate delivery: the pair must not transition again — it is
		// counted as pure overhead, never as a second recovery.
		o.duplicates++
	case row.detected[seq]:
		row.have[seq] = true
		o.recoveries++
	default:
		row.have[seq] = true
		o.preDetection++
	}
}

// OnLocalRecover observes a local (no-traffic) recovery, e.g. an FEC
// decode, of seq at client ci. The session only performs it on pairs it
// does not hold.
func (o *Oracle) OnLocalRecover(ci, seq int, det bool) {
	if !o.inRange(ci, seq, "local-recover") {
		return
	}
	if !o.sent[seq] {
		o.violate("local recovery of never-sent seq %d at client %d", seq, ci)
	}
	row := o.rows[ci]
	o.shadow(row, ci, seq, false, det, "local-recover")
	row.have[seq] = true
	if det {
		o.recoveries++
	} else {
		o.preDetection++
	}
}

// OnDetect observes client ci detecting the loss of seq. Detection is
// monotonic: a pair is detected at most once, and never after delivery.
func (o *Oracle) OnDetect(ci, seq int) {
	if !o.inRange(ci, seq, "detect") {
		return
	}
	if !o.sent[seq] {
		o.violate("detect: client %d detected loss of never-sent seq %d", ci, seq)
	}
	row := o.rows[ci]
	if row.have[seq] {
		o.violate("detect: client %d detected seq %d after delivery", ci, seq)
	}
	if row.detected[seq] {
		o.violate("detect: client %d detected seq %d twice", ci, seq)
	}
	row.detected[seq] = true
	o.losses++
}

// OnMalformed observes one rejected malformed packet.
func (o *Oracle) OnMalformed() { o.malformed++ }

// CheckBound asserts a bounded structure honours its capacity (the dedup
// caches' memory bound).
func (o *Oracle) CheckBound(name string, length, capacity int) {
	if capacity > 0 && length > capacity {
		o.violate("%s exceeds its bound: %d > %d", name, length, capacity)
	}
}

// Finish runs the end-of-run invariants and returns every violation found.
// down says which clients are crashed at the end instant, index-aligned
// with the oracle's clients; liveness is only asserted on complete
// (quiesced) runs.
func (o *Oracle) Finish(complete bool, down []bool, t Totals) []string {
	// Counter conservation: the session's totals must equal the oracle's
	// independent event counts.
	cmp := func(name string, oracle, session int64) {
		if oracle != session {
			o.record(fmt.Sprintf("conservation: %s: oracle counted %d, session reports %d",
				name, oracle, session))
		}
	}
	cmp("losses", o.losses, t.Losses)
	cmp("recoveries", o.recoveries, t.Recoveries)
	cmp("duplicates", o.duplicates, t.Duplicates)
	cmp("pre-detection repairs", o.preDetection, t.PreDetection)
	cmp("data deliveries", o.deliveries, t.DataDeliveries)
	cmp("late data", o.lateData, t.LateData)
	cmp("malformed", o.malformed, t.Malformed)
	if o.coded != nil {
		cmp("coded symbols", o.codedSymbols, t.CodedSymbols)
		cmp("coded duplicates", o.codedDup, t.CodedDuplicates)
		// A decoded block is a delivered block: the decode recovered every
		// missing sequence, so no decoded (client, block) may leave a gap.
		for ci, row := range o.rows {
			for b, dec := range row.decoded {
				if !dec {
					continue
				}
				lo := b * o.coded.k
				for s := 0; s < o.coded.blockLen(b, o.packets); s++ {
					if !row.have[lo+s] {
						o.record(fmt.Sprintf(
							"coded: client %d decoded block %d but lacks seq %d",
							ci, b, lo+s))
					}
				}
			}
		}
	}

	if o.fo != nil {
		o.finishFailover(t, cmp)
	}

	// Link conservation: a drop is a send that was not delivered, so drops
	// can never exceed hops (sends ≥ deliveries + drops, per kind).
	if t.DataDrops > t.DataHops {
		o.record(fmt.Sprintf("conservation: data drops %d exceed data hops %d", t.DataDrops, t.DataHops))
	}
	if t.RequestDrops > t.RequestHops {
		o.record(fmt.Sprintf("conservation: request drops %d exceed request hops %d", t.RequestDrops, t.RequestHops))
	}
	if t.RepairDrops > t.RepairHops {
		o.record(fmt.Sprintf("conservation: repair drops %d exceed repair hops %d", t.RepairDrops, t.RepairHops))
	}

	// Classification cross-check: recompute the end-of-run partition from
	// the shadow state and compare.
	var delivered, unrec, crashed int64
	for ci, row := range o.rows {
		isDown := ci < len(down) && down[ci]
		for seq, h := range row.have {
			switch {
			case h:
				delivered++
			case isDown:
				crashed++
			case row.detected[seq]:
				unrec++
			}
		}
	}
	cmp("delivered", delivered, t.Delivered)
	cmp("unrecovered", unrec, t.Unrecovered)
	cmp("unrecovered-crashed", crashed, t.UnrecoveredCrashed)

	// Liveness: once the run has quiesced, every sent packet is either held
	// by each live client or explicitly attributed to its crash. An open
	// gap at a live client — detected or not — means some engine gave up.
	if complete {
		for ci, row := range o.rows {
			if ci < len(down) && down[ci] {
				continue
			}
			for seq, h := range row.have {
				if o.sent[seq] && !h {
					o.record(fmt.Sprintf("liveness: client %d never recovered seq %d (detected=%v)",
						ci, seq, row.detected[seq]))
				}
			}
		}
	}
	return o.violations
}
