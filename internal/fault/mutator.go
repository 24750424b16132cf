// Message-plane mutation: the adversarial half of the fault model. The
// schedule half (schedule.go) attacks the *topology* — hosts crash, links
// die, loss bursts — while the mutator attacks the *messages* themselves:
// recovery requests and repairs are duplicated, delayed out of order,
// corrupted, or amplified into repair storms. The paper's model assumes a
// polite control plane (one NACK begets one repair, §3.1 ignores control
// loss entirely); related work on cooperative recovery treats unreliable
// clients and reordered repairs as the norm, so this layer exists to prove
// the engines stay safe and live when the politeness assumption breaks.
//
// Everything is deterministic: the mutator draws from a private rng stream
// split off the fault state's, and an empty MutationConfig never splits
// that stream at all, so runs without mutation stay byte-identical to runs
// before this layer existed (the same guarantee Schedule gives for empty
// schedules). Configs are never written after construction — the runtime
// Mutator copies what it reads — so one config value can be shared across
// parallel sweep cells. A config out of range is an error (Validate), not a
// value silently clamped.
package fault

import (
	"slices"

	"rmcast/internal/rng"
)

// MsgClass classifies packets for mutation. The fault package cannot see
// sim.Kind (sim imports fault), so the network layer maps packet kinds onto
// these classes; data packets are never mutated — the adversary owns the
// control plane, not the source's transmission, which the loss model
// already covers.
type MsgClass uint8

const (
	// ClassRequest covers recovery requests: RP/RMA/SRC unicast requests,
	// SRM NACK floods, and explicit NAK replies.
	ClassRequest MsgClass = iota
	// ClassRepair covers retransmissions.
	ClassRepair
	// ClassSymbol covers coded repair symbols (the COOP engine's block
	// recovery traffic): repair-kind packets whose payload is a coded
	// symbol rather than a plain retransmission.
	ClassSymbol
	numClasses
)

// CorruptMode says which field of a packet the mutator damaged. Corruption
// models *detectably* invalid packets — post-checksum header damage that
// validation must catch — so corrupted values are always outside the valid
// domain (negative seq/from, or a Garbage payload): the mutator never
// forges a packet that engines could mistake for a legitimate one, which
// would attack the experiment's bookkeeping rather than the protocol.
type CorruptMode uint8

const (
	CorruptNone CorruptMode = iota
	// CorruptSeq flips the sequence number out of range.
	CorruptSeq
	// CorruptFrom flips the sender field out of range.
	CorruptFrom
	// CorruptPayload replaces the payload with garbage (requests only:
	// repair payloads are never inspected, so garbage there is vacuous).
	CorruptPayload
	// CorruptSymbolIndex flips a coded symbol's index out of range
	// (symbol class only): the receiver must reject it as malformed, not
	// credit it toward a block's decode rank.
	CorruptSymbolIndex
	// CorruptSymbolTrunc truncates a coded symbol's payload — modelled as
	// replacing it with garbage (symbol class only). Like every corrupt
	// mode it is detectably invalid, never a forgeable valid symbol.
	CorruptSymbolTrunc
)

// symbolCorruptModes are the corruption outcomes drawn for ClassSymbol:
// header flips plus the two symbol-specific damages.
var symbolCorruptModes = [...]CorruptMode{
	CorruptSeq, CorruptFrom, CorruptSymbolIndex, CorruptSymbolTrunc,
}

const (
	// maxDupDefault bounds the geometric duplicate draw when MaxDup is 0.
	maxDupDefault = 3
	// maxDupCap is the hard per-delivery duplicate bound.
	maxDupCap = 8
	// maxStormExtra is the hard per-delivery storm amplification bound.
	maxStormExtra = 16
	// maxMutationDelay (ms) bounds reorder/duplicate jitter; unbounded
	// delay would be a drop, which the loss model already owns.
	maxMutationDelay = 10_000
	// maxCorruptProb keeps corruption below certainty: a plane that
	// corrupts every packet is a dead network, outside even the
	// adversarial model's "reliable network eventually delivers" floor
	// that the liveness invariant is conditioned on.
	maxCorruptProb = 0.9
)

// MutationParams are the per-class mutation intensities. The zero value
// mutates nothing.
type MutationParams struct {
	// DupProb is the probability of each extra copy of a delivery: copies
	// are drawn geometrically (another copy with probability DupProb,
	// up to MaxDup), each arriving at its own delay in [0, MaxDelay).
	DupProb float64
	// MaxDup caps the extra copies per delivery (0 means 3, hard cap 8).
	MaxDup int
	// ReorderProb is the probability the original delivery is delayed by
	// U[0, MaxDelay) ms — enough to land it behind later traffic.
	ReorderProb float64
	// MaxDelay (ms) bounds all mutation-injected delay (hard cap 10 s).
	MaxDelay float64
	// CorruptProb is the probability the original delivery is corrupted
	// (see CorruptMode); duplicates stay intact. Hard-capped at 0.9.
	CorruptProb float64
}

// fields lists the parameters of one class, named class.Field, with whether
// each is in its legal range.
func (p MutationParams) fields(class string) []field {
	return []field{
		{class + ".DupProb", p.DupProb, 0 <= p.DupProb && p.DupProb <= 1},
		{class + ".MaxDup", float64(p.MaxDup), 0 <= p.MaxDup && p.MaxDup <= maxDupCap},
		{class + ".ReorderProb", p.ReorderProb, 0 <= p.ReorderProb && p.ReorderProb <= 1},
		{class + ".MaxDelay", p.MaxDelay, 0 <= p.MaxDelay && p.MaxDelay <= maxMutationDelay},
		{class + ".CorruptProb", p.CorruptProb, 0 <= p.CorruptProb && p.CorruptProb <= maxCorruptProb},
	}
}

// Empty reports whether valid parameters mutate nothing.
func (p MutationParams) Empty() bool {
	return p.DupProb == 0 && p.ReorderProb == 0 && p.CorruptProb == 0
}

// StormWindow is a targeted repair-storm amplification window: every repair
// delivery whose injection instant falls in [From, To) gains Extra further
// copies, modelling the feedback implosions that suppression mechanisms
// exist to prevent.
type StormWindow struct {
	From, To float64
	Extra    int
}

// active reports whether the window can ever amplify anything (NaN bounds
// never match any instant).
func (w StormWindow) active() bool {
	return w.Extra > 0 && w.From == w.From && w.To > w.From
}

// MutationConfig is the declarative message-plane adversary attached to a
// Schedule. The zero value (and nil) mutates nothing. Configs are read-only
// after construction: the runtime copies them, so a single config may be
// shared across concurrent runs.
type MutationConfig struct {
	// Request, Repair, and Symbol are the per-class mutation intensities
	// (Symbol covers coded repair symbols; inert for engines that send
	// none).
	Request MutationParams
	Repair  MutationParams
	Symbol  MutationParams
	// Storms amplify repair and symbol deliveries inside their windows.
	Storms []StormWindow
}

// Validate rejects, naming the field, every value the mutator would not
// honour as given: a probability outside [0, 1] (NaN included), a
// CorruptProb above 0.9, a MaxDelay outside [0, 10 000] ms and a MaxDup
// outside [0, 8]. A nil config is valid. Storm windows are not checked: an
// inactive one mutates nothing and Extra is capped at 16.
func (c *MutationConfig) Validate() error {
	if c == nil {
		return nil
	}
	return firstBad("mutation config", slices.Concat(
		c.Request.fields("Request"), c.Repair.fields("Repair"), c.Symbol.fields("Symbol")))
}

// Empty reports whether a valid config mutates nothing.
func (c *MutationConfig) Empty() bool {
	if c == nil {
		return true
	}
	if !c.Request.Empty() || !c.Repair.Empty() || !c.Symbol.Empty() {
		return false
	}
	for _, w := range c.Storms {
		if w.active() {
			return false
		}
	}
	return true
}

// MutationFromIntensity maps one adversarial intensity in [0, 1] to a
// mutation config, the way BurstFromSeverity maps severity to a burst
// regime: at intensity 1, every control delivery is duplicated with
// probability 0.3 (up to 3 extra copies), reordered with probability 0.4 by
// up to 25 ms, corrupted with probability 0.12, and a storm window over the
// middle tenth of the span triples repairs. Intensity ≤ 0 returns nil — the
// legacy, mutation-free plane. An intensity above 1 scales every rate past
// that; MutationConfig.Validate rejects a config it takes out of range.
func MutationFromIntensity(intensity, span float64) *MutationConfig {
	if !(intensity > 0) { // ≤ 0 or NaN
		return nil
	}
	if !(span > 0) {
		span = 1
	}
	p := MutationParams{
		DupProb:     0.3 * intensity,
		ReorderProb: 0.4 * intensity,
		MaxDelay:    25 * intensity,
		CorruptProb: 0.12 * intensity,
	}
	return &MutationConfig{
		Request: p,
		Repair:  p,
		Symbol:  p,
		Storms: []StormWindow{
			{From: 0.35 * span, To: 0.45 * span, Extra: 1 + int(2*intensity)},
		},
	}
}

// Mutation is one delivery's sampled fate: the original copy arrives Delay
// ms late (possibly corrupted), and one extra intact copy arrives per entry
// of Copies. The Copies slice aliases the Mutator's scratch buffer and is
// only valid until the next Sample call.
type Mutation struct {
	Delay   float64
	Copies  []float64
	Corrupt CorruptMode
}

// Mutator is the runtime message-plane adversary, compiled from a
// MutationConfig with a private rng stream. Like the rest of the fault
// state it belongs to a single run.
type Mutator struct {
	classes [numClasses]MutationParams
	active  [numClasses]bool
	storms  []StormWindow
	r       *rng.Rand
	scratch []float64
}

// newMutator compiles a valid config (Validate) into a private copy, with
// MaxDup 0 set to its default; cfg itself is never written (it may be
// shared across parallel runs).
func newMutator(cfg *MutationConfig, r *rng.Rand) *Mutator {
	m := &Mutator{r: r}
	m.classes = [numClasses]MutationParams{cfg.Request, cfg.Repair, cfg.Symbol}
	for i := range m.classes {
		if m.classes[i].MaxDup == 0 {
			m.classes[i].MaxDup = maxDupDefault
		}
	}
	for _, w := range cfg.Storms {
		if !w.active() {
			continue
		}
		if w.Extra > maxStormExtra {
			w.Extra = maxStormExtra
		}
		m.storms = append(m.storms, w)
	}
	m.active[ClassRequest] = !cfg.Request.Empty()
	m.active[ClassRepair] = !cfg.Repair.Empty() || len(m.storms) > 0
	m.active[ClassSymbol] = !cfg.Symbol.Empty() || len(m.storms) > 0
	return m
}

// Active reports whether this class can be mutated at all — the network
// layer's cheap pre-check, keeping unmutated classes entirely draw-free so
// their event streams match the mutation-free run exactly.
func (m *Mutator) Active(class MsgClass) bool { return m.active[class] }

// Sample draws one delivery's fate into out and reports whether anything
// was mutated (false means deliver exactly as today). at is the injection
// instant, used for storm-window membership. out.Copies aliases the
// mutator's scratch buffer: consume it before the next Sample.
func (m *Mutator) Sample(class MsgClass, at float64, out *Mutation) bool {
	p := m.classes[class]
	out.Delay = 0
	out.Corrupt = CorruptNone
	m.scratch = m.scratch[:0]
	if p.DupProb > 0 {
		for i := 0; i < p.MaxDup && m.r.Bool(p.DupProb); i++ {
			m.scratch = append(m.scratch, m.jitter(p))
		}
	}
	if class != ClassRequest {
		// Storms amplify repair-plane traffic: plain retransmissions and
		// coded symbols alike.
		for _, w := range m.storms {
			if at >= w.From && at < w.To {
				for i := 0; i < w.Extra; i++ {
					m.scratch = append(m.scratch, m.jitter(p))
				}
			}
		}
	}
	if p.ReorderProb > 0 && m.r.Bool(p.ReorderProb) {
		out.Delay = m.jitter(p)
	}
	if p.CorruptProb > 0 && m.r.Bool(p.CorruptProb) {
		switch class {
		case ClassRequest:
			out.Corrupt = CorruptMode(1 + m.r.Intn(3))
		case ClassSymbol:
			// Symbol payloads ARE inspected: header flips plus the two
			// symbol-specific damages (out-of-range index, truncation).
			out.Corrupt = symbolCorruptModes[m.r.Intn(len(symbolCorruptModes))]
		default:
			// Repair payloads are never inspected, so garbage there
			// would mutate nothing observable; flip header fields only.
			out.Corrupt = CorruptMode(1 + m.r.Intn(2))
		}
	}
	out.Copies = m.scratch
	return len(out.Copies) > 0 || out.Delay > 0 || out.Corrupt != CorruptNone
}

// jitter draws one mutation delay in [0, MaxDelay).
func (m *Mutator) jitter(p MutationParams) float64 {
	if p.MaxDelay <= 0 {
		return 0
	}
	return p.MaxDelay * m.r.Float64()
}
