// Package sim provides the discrete-event packet-level simulator of §5.1:
// a deterministic event engine plus a simulated network layer that forwards
// unicast packets along minimum-delay paths and multicast packets along the
// multicast tree, applying independent per-link Bernoulli loss and fixed
// per-link delay.
//
// Per the paper, "unlike a real network, the link delay and loss properties
// are independent of the number of packets traversing the link" — by
// default there is no queueing or congestion model, which (as the paper
// notes) biases in favour of the chattier protocols SRM and RMA, making RP's
// measured advantage conservative. The optional QueueModel adds one.
//
// Delivery: every packet that reaches a host goes to one receiver per net
// (Net.Deliver), and the source and client set is built once per topology
// and shared by every shard of a partitioned run. Unicast, MulticastSubtree
// and MulticastDescend write their hops into reused scratch and hand them to
// one path walk per forwarding model: the precomputed model crosses them
// when the packet is sent, the queue model takes one hop per event. Floods
// (FloodTree, MulticastFromSource) fan out over the tree instead. Under the
// precomputed model every send collects the deliveries it produces — one
// for a unicast, one per reached host for a flood, one per mutated copy —
// into one delivery batch, and a shard's per-window remote ingest
// (InjectRemote) hands over its buffer as one batch too.
//
// Determinism: all randomness flows through one rng.Rand owned by the
// caller, and simultaneous events fire in schedule order (a monotone
// sequence number breaks time ties), so a run is a pure function of its
// seed and configuration. A caller can set a block of sequence numbers
// aside (ReserveSeq) and push an event at one of them later
// (ScheduleCallSeq): the event then fires exactly where it would have fired
// had it been scheduled at reservation time. The protocol layer's detect
// program uses this to keep one pending detection per packet instead of
// one per (client, packet), without changing any run.
//
// The calendar holds only live, next-due work:
//   - A delivery batch stamps each entry with the sequence number its own
//     push would have taken, sorts the entries by (at, seq) and sits in the
//     calendar as one event keyed at its next entry. Each entry still fires
//     as one event, and the batch takes its next key before the receiver
//     runs, so the firing order is the one-event-per-delivery order.
//   - A stopped timer's event stays in the calendar until it pops as an
//     empty event. Once stopped timers make up half the calendar, a purge
//     moves their (at, seq) keys to a side heap, where each still pops as
//     one empty event at its instant. Now, Processed, Pending and RunBefore
//     read exactly as if the timer had stayed.
//
// The event core is allocation-free in steady state: the calendar is a
// hand-rolled 4-ary min-heap over typed event structs (no container/heap
// interface boxing), deliveries ride in pooled batches, queued-model
// forwarding uses pooled walker events instead of per-hop closures, and
// cancellable timers live in recycled engine-owned slots. The (at, seq)
// order is a strict total order, so no heap arity, heap shape, purge or
// batch can perturb the firing order of a fixed-seed run.
//
// The calendar entries themselves are pointer-free: closure, callee,
// walker and batch payloads park in recycled side arenas and events carry
// int32 slot references. Sifting events through the heap is then a plain
// memmove — no write barriers — and the garbage collector never scans the
// calendar.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Engine is a discrete-event scheduler. Times are float64 milliseconds.
type Engine struct {
	now float64
	seq uint64
	// pq is the calendar: a 4-ary min-heap of events ordered by (at, seq).
	pq []event
	// stale is the side heap of purged stopped timers: bare (at, seq) keys
	// that each pop as one empty event (see purge).
	stale []key
	// stopped counts the stopped timers whose events are still in pq.
	stopped int
	// pending counts scheduled, not-yet-fired events: every pq event but a
	// batch, every unfired batch entry and every stale key.
	pending int
	// processed counts executed events, for loop detection in tests and
	// run-away guards in the harness. Run derives its per-call count from
	// this same counter, so the two can never drift.
	processed uint64

	// freeW is the walker free list: hop-walker events recycle through it
	// instead of churning the garbage collector (see walker.go).
	freeW *walker
	// freeB and freeBig are the delivery-batch free lists, for unicasts and
	// for floods and ingests; spares are the largest entry arrays recycled
	// batches gave up (see walker.go).
	freeB, freeBig []*batch
	spares         [][]arrival
	// sortBuf is the batch sort's scratch, up to batchKeep entries.
	sortBuf []arrival

	// timers is the pooled timer arena; timerFree lists recyclable slots.
	// A slot is released when its calendar event pops (fired or stopped) or
	// when a purge moves its stopped event out of the calendar, and
	// generation counters keep stale Timer handles inert.
	timers    []timerSlot
	timerFree []int32

	// Payload arenas: the pointer-bearing halves of scheduled events, so
	// the calendar array itself stays pointer-free. A slot lives exactly
	// from push to pop (a batch's, until its last entry fires).
	fns     arena[func()]
	calls   arena[Callee]
	walks   arena[*walker]
	batches arena[*batch]
}

// arena is a recycled slot store: put parks a value and returns its slot,
// take retrieves it and frees the slot. Steady state allocates nothing.
type arena[T any] struct {
	slots []T
	free  []int32
}

func (a *arena[T]) put(v T) int32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		a.slots[i] = v
		return i
	}
	a.slots = append(a.slots, v)
	return int32(len(a.slots) - 1)
}

func (a *arena[T]) take(i int32) T {
	v := a.slots[i]
	var zero T
	a.slots[i] = zero
	a.free = append(a.free, i)
	return v
}

// evKind tags the event union dispatched by Step.
type evKind uint8

const (
	// evFunc runs an arbitrary closure — the general-purpose event.
	evFunc evKind = iota
	// evCall invokes a Callee with (op, a, b) — a closure-free callback
	// for hot paths that would otherwise allocate one closure per packet.
	evCall
	// evTimer fires the pooled timer in slot a if generation b still
	// matches (see Timer).
	evTimer
	// evWalker advances a pooled hop walker (see walker.go).
	evWalker
	// evBatch fires the next entry of a delivery batch (see walker.go).
	evBatch
)

// event is one calendar entry: ordering key plus a small tagged union.
// The struct is deliberately pointer-free (32 bytes): payloads that carry
// pointers live in the engine's arenas, referenced by ref, so heap sifts
// are barrier-free memmoves and the calendar is invisible to the garbage
// collector. Only the fields selected by kind are meaningful.
type event struct {
	at   float64
	seq  uint64
	a, b int32 // evCall arguments; evTimer slot and generation
	ref  int32 // arena slot for evFunc / evCall / evWalker / evBatch payloads
	kind evKind
	op   uint8 // evCall opcode
}

// Callee receives typed callback events scheduled with ScheduleCall: a
// single dispatch method with an opcode and two small integer arguments —
// enough for (client index, sequence) style callbacks without allocating a
// closure per event.
type Callee interface {
	OnSimEvent(op, a, b int)
}

// evLess is the strict total order (at, then schedule seq) shared by every
// heap operation. seq is unique, so ties cannot exist and firing order is
// independent of heap shape.
func evLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// heapPush sifts ev into the 4-ary heap h. Steady state (backing array at
// capacity) allocates nothing.
func heapPush(h *[]event, ev event) {
	q := append(*h, ev)
	// Sift up: move the hole toward the root until the parent fits.
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&ev, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// heapPop removes and returns the earliest event of h. Events are
// pointer-free, so the vacated tail slot needs no zeroing — it cannot
// retain anything.
func heapPop(h *[]event) event {
	q := *h
	top := q[0]
	n := len(q) - 1
	*h = q[:n]
	if n > 0 {
		siftDown(q[:n], 0, q[n])
	}
	return top
}

// siftDown places ev at hole i of the 4-ary heap q, moving the hole toward
// the leaves, pulling up the smallest of up to four children, until ev
// fits.
func siftDown(q []event, i int, ev event) {
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for k := c + 1; k < end; k++ {
			if evLess(&q[k], &q[m]) {
				m = k
			}
		}
		if !evLess(&q[m], &ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}

// key is a bare (at, seq) calendar key: what a purged stopped timer leaves.
type key struct {
	at  float64
	seq uint64
}

// before is the calendar's (at, seq) order on keys.
func (x *key) before(at float64, seq uint64) bool {
	return x.at < at || (x.at == at && x.seq < seq)
}

// pushKey sifts k into the binary min-heap h.
func pushKey(h *[]key, k key) {
	q := append(*h, k)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if !k.before(q[p].at, q[p].seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = k
	*h = q
}

// popKey removes and returns the least key of the binary min-heap h.
func popKey(h *[]key) key {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c].at, q[c].seq) {
			c++
		}
		if !q[c].before(last.at, last.seq) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// NewEngine returns an engine at time 0 with an empty calendar.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time (ms).
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, not-yet-fired events: each
// undelivered batch entry and each stopped timer not yet at its instant
// counts as one.
func (e *Engine) Pending() int { return e.pending }

// ReserveSeq sets aside the next n tie-break sequence numbers and returns
// the first. An event pushed later at a reserved number (ScheduleCallSeq)
// orders against every other event exactly as if it had been scheduled at
// reservation time: this is how the protocol layer's detect program pushes
// each loss detection only when the one before it pops, yet keeps the
// (at, seq) firing order of scheduling them all up front.
func (e *Engine) ReserveSeq(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// check panics on a timestamp in the past or not finite: scheduling one is
// always a protocol bug.
func (e *Engine) check(at float64) {
	if at < e.now || math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule at %v with now %v", at, e.now))
	}
}

// push stamps the next tie-break sequence number on ev and sifts it into the
// calendar.
func (e *Engine) push(at float64, ev event) {
	e.seq++
	e.pushSeq(at, e.seq, ev)
}

// pushSeq validates the timestamp and sifts the event, stamped with seq,
// into the calendar.
func (e *Engine) pushSeq(at float64, seq uint64, ev event) {
	e.check(at)
	ev.at = at
	ev.seq = seq
	e.pending++
	heapPush(&e.pq, ev)
}

// Schedule runs fn at absolute time at. Scheduling in the past or at a
// non-finite time panics: it is always a protocol bug.
func (e *Engine) Schedule(at float64, fn func()) {
	e.push(at, event{kind: evFunc, ref: e.fns.put(fn)})
}

// After runs fn d milliseconds from now.
func (e *Engine) After(d float64, fn func()) { e.Schedule(e.now+d, fn) }

// ScheduleCall runs c.OnSimEvent(op, a, b) at absolute time at, without
// allocating: the opcode and arguments ride inside the typed event. op must
// fit in a uint8 and a, b in int32 — ample for the client-index and
// sequence-number callbacks the protocol layer schedules per packet.
func (e *Engine) ScheduleCall(at float64, c Callee, op, a, b int) {
	e.push(at, event{kind: evCall, ref: e.calls.put(c),
		op: uint8(op), a: int32(a), b: int32(b)})
}

// ScheduleCallSeq is ScheduleCall at a tie-break sequence number set aside
// earlier by ReserveSeq. Each reserved number must be pushed at most once;
// a number beyond any handed out so far panics.
func (e *Engine) ScheduleCallSeq(at float64, seq uint64, c Callee, op, a, b int) {
	if seq == 0 || seq > e.seq {
		panic(fmt.Sprintf("sim: push at unreserved seq %d (handed out up to %d)", seq, e.seq))
	}
	e.pushSeq(at, seq, event{kind: evCall, ref: e.calls.put(c),
		op: uint8(op), a: int32(a), b: int32(b)})
}

// staleFirst reports whether the next event to fire is a purged timer's
// key rather than the calendar's top.
func (e *Engine) staleFirst() bool {
	return len(e.stale) > 0 && (len(e.pq) == 0 || e.stale[0].before(e.pq[0].at, e.pq[0].seq))
}

// Step executes the next event, returning false when nothing is pending.
func (e *Engine) Step() bool {
	if e.staleFirst() {
		e.now = popKey(&e.stale).at
		e.processed++
		e.pending--
		return true
	}
	if len(e.pq) == 0 {
		return false
	}
	e.now = e.pq[0].at
	e.processed++
	e.pending--
	if e.pq[0].kind == evBatch {
		e.fireBatch()
		return true
	}
	ev := heapPop(&e.pq)
	switch ev.kind {
	case evFunc:
		e.fns.take(ev.ref)()
	case evCall:
		e.calls.take(ev.ref).OnSimEvent(int(ev.op), int(ev.a), int(ev.b))
	case evTimer:
		e.fireTimer(ev.a, uint32(ev.b))
	case evWalker:
		e.walks.take(ev.ref).run()
	}
	return true
}

// Run executes events until the calendar is empty or maxEvents have fired
// (0 means unlimited). It returns the number of events executed, counted on
// the same processed counter Processed reports.
func (e *Engine) Run(maxEvents uint64) uint64 {
	start := e.processed
	for e.Step() {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			break
		}
	}
	return e.processed - start
}

// RunBefore executes events with timestamps strictly below t, at most budget
// of them, and returns how many fired. The clock is left at the last
// executed event, not advanced to t: the session runner calls this per
// window, and a domain must still accept remote deliveries stamped between
// its last local event and the horizon. With t = +Inf it stops exactly where
// Run(budget) stops.
func (e *Engine) RunBefore(t float64, budget uint64) uint64 {
	start := e.processed
	for e.processed-start < budget {
		if at, ok := e.NextEventAt(); !ok || at >= t {
			break
		}
		e.Step()
	}
	return e.processed - start
}

// NextEventAt returns the timestamp of the earliest pending event; ok is
// false when nothing is pending.
func (e *Engine) NextEventAt() (at float64, ok bool) {
	if e.staleFirst() {
		return e.stale[0].at, true
	}
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// Timer slot states. A slot is freed (pushed on timerFree) when its
// calendar event pops or is purged; until the slot is re-armed, stale
// handles still read their fired/stopped outcome; after re-arming, the
// bumped generation makes them fully inert.
const (
	slotArmed uint8 = iota + 1
	slotStopped
	slotFired
)

// purgeMin is the fewest stopped timers a purge moves: below it, popping
// them where they lie is as cheap as moving them.
const purgeMin = 32

// timerSlot is the engine-owned, recycled representation of one timer.
type timerSlot struct {
	gen   uint32
	state uint8
	fn    func()
}

// Timer is a cancellable scheduled callback: a generation-stamped handle
// into the engine's pooled timer arena. The zero Timer is valid and inert —
// Stop and Fired return false. Handles are values; copy them freely.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// NewTimer schedules fn after d ms and returns a handle that can Stop it.
// The timer's state lives in a recycled engine slot, so arming a timer
// allocates nothing beyond the caller's own callback closure.
func (e *Engine) NewTimer(d float64, fn func()) Timer {
	var idx int32
	if n := len(e.timerFree); n > 0 {
		idx = e.timerFree[n-1]
		e.timerFree = e.timerFree[:n-1]
	} else {
		e.timers = append(e.timers, timerSlot{})
		idx = int32(len(e.timers) - 1)
	}
	sl := &e.timers[idx]
	sl.gen++
	sl.state = slotArmed
	sl.fn = fn
	e.push(e.now+d, event{kind: evTimer, a: idx, b: int32(sl.gen)})
	return Timer{e: e, idx: idx, gen: sl.gen}
}

// fireTimer pops one timer event: run the callback if the slot is still
// armed, then recycle the slot.
func (e *Engine) fireTimer(idx int32, gen uint32) {
	sl := &e.timers[idx]
	if sl.gen != gen {
		return
	}
	fn := sl.fn
	fired := sl.state == slotArmed
	if fired {
		sl.state = slotFired
	} else {
		e.stopped--
	}
	sl.fn = nil
	e.timerFree = append(e.timerFree, idx)
	if fired {
		fn()
	}
}

// purge moves every stopped timer's event from the calendar to the stale
// side heap as a bare (at, seq) key, frees the timers' slots, and restores
// the calendar's heap order. The pending count is unchanged: each key
// still pops as one empty event. The side heap grows once, by exactly the
// keys it takes, and its keys are half an event's size, so a purge at the
// calendar's peak adds little to it. Stop calls it, possibly from inside a
// receiver; Step has finished with the calendar by then.
func (e *Engine) purge() {
	e.stale = slices.Grow(e.stale, e.stopped)
	live := e.pq[:0]
	for _, ev := range e.pq {
		if ev.kind == evTimer && e.timers[ev.a].state == slotStopped {
			pushKey(&e.stale, key{at: ev.at, seq: ev.seq})
			e.timerFree = append(e.timerFree, ev.a)
			continue
		}
		live = append(live, ev)
	}
	e.pq = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		siftDown(live, i, live[i])
	}
	e.stopped = 0
}

// Valid reports whether the handle refers to a timer at all (false for the
// zero Timer) — callers that park entries with a placeholder handle use it
// to tell "armed once" from "never armed".
func (t Timer) Valid() bool { return t.e != nil }

// Stop cancels the timer if it has not fired; it reports whether the call
// prevented the callback. Stopping a stale handle (one whose slot has been
// recycled for a newer timer) is a safe no-op. Once stopped timers make up
// half the calendar, Stop purges them (see purge).
func (t Timer) Stop() bool {
	e := t.e
	if e == nil || int(t.idx) >= len(e.timers) {
		return false
	}
	sl := &e.timers[t.idx]
	if sl.gen != t.gen || sl.state != slotArmed {
		return false
	}
	sl.state = slotStopped
	sl.fn = nil
	e.stopped++
	if e.stopped >= purgeMin && 2*e.stopped >= len(e.pq) {
		e.purge()
	}
	return true
}

// Fired reports whether the callback ran. Once the slot is recycled for a
// newer timer the handle reads false; engines only consult Fired between
// arming and the next re-arm, where the answer is exact.
func (t Timer) Fired() bool {
	if t.e == nil || int(t.idx) >= len(t.e.timers) {
		return false
	}
	sl := &t.e.timers[t.idx]
	return sl.gen == t.gen && sl.state == slotFired
}
