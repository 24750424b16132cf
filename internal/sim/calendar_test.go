package sim

import (
	"math"
	"slices"
	"sort"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// Calendar equivalence: the engine's calendar (delivery batches, purged
// timers) against a reference calendar that pushes every entry as its own
// event and never purges — the eager schedule the batches and the purge
// must reproduce exactly.

// firing is one callback as a calendar ran it: the clock, the processed
// and pending counts, the callback's id, and the result of the Stop it made
// (stop is -1 when it made none).
type firing struct {
	now       float64
	processed uint64
	pending   int
	id        int
	stop      int
}

// refEvent is one pending reference event; timer is the index of the
// timer it fires, or -1.
type refEvent struct {
	at    float64
	seq   uint64
	id    int
	timer int
}

// refCalendar is the reference: an unordered event list popped by linear
// search for the least (at, seq), with a stopped timer left in place until
// it pops as an empty event.
type refCalendar struct {
	now       float64
	seq       uint64
	processed uint64
	events    []refEvent
	stopped   []bool
	fired     []bool
	acts      *[]int
	log       []firing
}

func (r *refCalendar) push(at float64, id, timer int) {
	r.seq++
	r.events = append(r.events, refEvent{at: at, seq: r.seq, id: id, timer: timer})
}

func (r *refCalendar) arm(d float64, id int) {
	r.stopped = append(r.stopped, false)
	r.fired = append(r.fired, false)
	r.push(r.now+d, id, len(r.stopped)-1)
}

func (r *refCalendar) stop(k int) bool {
	if r.stopped[k] || r.fired[k] {
		return false
	}
	r.stopped[k] = true
	return true
}

func (r *refCalendar) next() (int, bool) {
	m := -1
	for i, ev := range r.events {
		if m < 0 || ev.at < r.events[m].at || (ev.at == r.events[m].at && ev.seq < r.events[m].seq) {
			m = i
		}
	}
	return m, m >= 0
}

func (r *refCalendar) step() bool {
	m, ok := r.next()
	if !ok {
		return false
	}
	ev := r.events[m]
	r.events = slices.Delete(r.events, m, m+1)
	r.now = ev.at
	r.processed++
	if ev.timer >= 0 {
		if r.stopped[ev.timer] {
			return true
		}
		r.fired[ev.timer] = true
	}
	f := firing{now: r.now, processed: r.processed, pending: len(r.events), id: ev.id, stop: -1}
	if k := len(r.stopped) - 1 - (*r.acts)[ev.id]; (*r.acts)[ev.id] >= 0 && k >= 0 {
		f.stop = b2i(r.stop(k))
	}
	r.log = append(r.log, f)
	return true
}

func (r *refCalendar) runBefore(t float64, budget uint64) uint64 {
	var n uint64
	for n < budget {
		m, ok := r.next()
		if !ok || r.events[m].at >= t {
			break
		}
		r.step()
		n++
	}
	return n
}

// calHarness drives the engine side: every callback logs a firing and, if
// it has an action a, stops the a-th newest timer (the reference does the
// same).
type calHarness struct {
	e      *Engine
	n      *Net
	timers []Timer
	acts   *[]int
	log    []firing
	// purges and innerPurges count the Stop calls that purged, from the op
	// loop and from inside a callback.
	purges, innerPurges int
}

func newCalHarness(acts *[]int) *calHarness {
	h := &calHarness{e: NewEngine(), acts: acts}
	h.n = &Net{Eng: h.e, hosts: []bool{true}}
	h.n.Deliver = func(_ graph.NodeID, pkt Packet) { h.fire(pkt.Seq) }
	return h
}

func (h *calHarness) fire(id int) {
	f := firing{now: h.e.Now(), processed: h.e.Processed(), pending: h.e.Pending(), id: id, stop: -1}
	if k := len(h.timers) - 1 - (*h.acts)[id]; (*h.acts)[id] >= 0 && k >= 0 {
		f.stop = b2i(h.stop(k, &h.innerPurges))
	}
	h.log = append(h.log, f)
}

// stop stops timer k, counting the calls that purged in *purges.
func (h *calHarness) stop(k int, purges *int) bool {
	ok := h.timers[k].Stop()
	if ok && h.e.stopped == 0 {
		*purges++
	}
	return ok
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// calOffset decodes a byte into a non-negative offset from now: 0–3 ms,
// optionally one ulp above, so entries tie exactly and by one ulp.
func calOffset(now float64, b byte) float64 {
	at := now + float64(b&3)
	if b&4 != 0 {
		at = math.Nextafter(at, math.Inf(1))
	}
	return at
}

// runCalendar decodes ops and applies each to the engine and the
// reference, comparing the firing logs and Pending after every op and the
// final clock and counts after a drain. It returns the engine side.
func runCalendar(t *testing.T, ops []byte) *calHarness {
	var acts []int
	h, ref := newCalHarness(&acts), &refCalendar{acts: &acts}
	newID := func(b byte) int {
		act := -1
		if b&0x80 != 0 {
			act = int(b>>3) & 15
		}
		acts = append(acts, act)
		return len(acts) - 1
	}
	arg := func(i int) byte {
		if i < len(ops) {
			return ops[i]
		}
		return 0
	}
	for i := 0; i < len(ops); {
		op, a := ops[i]%8, arg(i+1)
		i += 2
		switch op {
		case 0: // one closure
			id, at := newID(a), calOffset(h.e.Now(), a)
			h.e.Schedule(at, func() { h.fire(id) })
			ref.push(at, id, -1)
		case 1: // arm a burst of timers
			for k := 0; k < int(a%48)+1; k++ {
				id, d := newID(a+byte(k)), float64((int(a)+k)%5)
				h.timers = append(h.timers, h.e.NewTimer(d, func() { h.fire(id) }))
				ref.arm(d, id)
			}
		case 2: // stop every stride-th timer from an offset
			stride := int(a%4) + 1
			for k := int(a>>2) % stride; k < len(h.timers); k += stride {
				if got, want := h.stop(k, &h.purges), ref.stop(k); got != want {
					t.Fatalf("op %d: Stop(%d) = %v, reference %v", i/2, k, got, want)
				}
			}
		case 3: // a delivery batch produced out of time order
			b := h.e.newBatch(h.n, a&0x20 != 0)
			for k := 0; k < int(a%16)+1; k++ {
				c := arg(i + k)
				id, at := newID(c), calOffset(h.e.Now(), c)
				h.e.addArrival(b, at, 0, b.addPkt(Packet{Seq: id}))
				ref.push(at, id, -1)
			}
			i += int(a%16) + 1
			h.e.scheduleBatch(b)
		case 4: // an ingest batch, in collection order or already time-sorted
			var rds []RemoteDelivery
			for k := 0; k < int(a%16)+1; k++ {
				c := arg(i + k)
				rds = append(rds, RemoteDelivery{At: calOffset(h.e.Now(), c), Pkt: Packet{Seq: newID(c)}})
			}
			i += int(a%16) + 1
			if a&0x40 != 0 {
				sort.SliceStable(rds, func(x, y int) bool { return rds[x].At < rds[y].At })
			}
			for _, rd := range rds {
				ref.push(rd.At, rd.Pkt.Seq, -1)
			}
			h.n.InjectRemote(rds)
		case 5, 6: // a few steps
			for k := 0; k < int(a%4)+1; k++ {
				if got, want := h.e.Step(), ref.step(); got != want {
					t.Fatalf("op %d: Step = %v, reference %v", i/2, got, want)
				}
				compareCalendars(t, i/2, h, ref)
			}
		case 7: // RunBefore with a small horizon and budget
			horizon, budget := calOffset(h.e.Now(), a), uint64(a>>4)
			if got, want := h.e.RunBefore(horizon, budget), ref.runBefore(horizon, budget); got != want {
				t.Fatalf("op %d: RunBefore(%v, %d) ran %d, reference %d", i/2, horizon, budget, got, want)
			}
		}
		compareCalendars(t, i/2, h, ref)
	}
	h.e.Run(0)
	for ref.step() {
	}
	compareCalendars(t, -1, h, ref)
	if h.e.Now() != ref.now || h.e.Processed() != ref.processed {
		t.Fatalf("drained at clock %v after %d events, reference %v after %d",
			h.e.Now(), h.e.Processed(), ref.now, ref.processed)
	}
	return h
}

func compareCalendars(t *testing.T, op int, h *calHarness, ref *refCalendar) {
	t.Helper()
	if !slices.Equal(h.log, ref.log) {
		for k := range min(len(h.log), len(ref.log)) {
			if h.log[k] != ref.log[k] {
				t.Fatalf("op %d: firing %d is %+v, reference %+v", op, k, h.log[k], ref.log[k])
			}
		}
		t.Fatalf("op %d: %d firings, reference %d", op, len(h.log), len(ref.log))
	}
	if h.e.Pending() != len(ref.events) {
		t.Fatalf("op %d: Pending %d, reference %d", op, h.e.Pending(), len(ref.events))
	}
	if h.e.Now() != ref.now || h.e.Processed() != ref.processed {
		t.Fatalf("op %d: clock %v after %d events, reference %v after %d",
			op, h.e.Now(), h.e.Processed(), ref.now, ref.processed)
	}
}

// FuzzCalendar compares the engine with the reference calendar over
// byte-decoded closures, timer bursts and stops (purges included, some run
// from inside callbacks), delivery batches produced out of time order and
// ingest batches in collection or time order, with exact and one-ulp ties,
// steps, and RunBefore windows.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{3, 5, 0, 4, 1, 5, 2, 6, 5, 3})
	f.Add([]byte{1, 47, 2, 0, 5, 3, 1, 47, 2, 4, 7, 0xf3, 0, 0x81})
	f.Add([]byte{4, 7, 0, 1, 1, 2, 3, 3, 5, 6, 7, 0x43, 1, 40, 3, 9, 0x85, 0x8c, 0x94, 3, 7, 0, 4, 5, 6, 2, 2, 7, 0xff})
	f.Add([]byte{1, 40, 0, 0x8a, 3, 3, 0x80, 0x88, 0x90, 0x98, 2, 1, 5, 3, 5, 3, 7, 0x2f})
	f.Fuzz(func(t *testing.T, ops []byte) { runCalendar(t, ops) })
}

// TestCalendarSeeds runs a long random op sequence, so plain `go test`
// covers the equivalence, purges from the op loop and from inside
// callbacks included.
func TestCalendarSeeds(t *testing.T) {
	long := make([]byte, 0, 4096)
	r := rng.New(9)
	for len(long) < cap(long) {
		long = append(long, byte(r.Intn(256)))
	}
	if h := runCalendar(t, long); h.purges == 0 || h.innerPurges == 0 {
		t.Fatalf("%d purges, %d from inside a callback: the sequence misses the purge", h.purges, h.innerPurges)
	}
}

// TestCalendarResidency pins what the calendar holds: a precomputed flood
// to N hosts is one calendar entry while all N deliveries are pending, and
// stopping most of K armed timers moves them out of the calendar.
func TestCalendarResidency(t *testing.T) {
	topo, err := topology.Binary(4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	n := NewNet(e, topo, tree, route.Build(topo), rng.New(1))
	got := 0
	n.Deliver = func(graph.NodeID, Packet) { got++ }
	n.FloodTree(Packet{Kind: Repair, From: topo.Clients[0], Seq: 1})
	hosts := len(topo.Clients) // every client but the sender, plus the source
	if len(e.pq) != 1 || e.Pending() != hosts {
		t.Fatalf("flood to %d hosts: %d calendar entries, Pending %d; want 1 and %d",
			hosts, len(e.pq), e.Pending(), hosts)
	}
	e.Run(0)
	if got != hosts || e.Pending() != 0 {
		t.Fatalf("delivered %d of %d, %d still pending", got, hosts, e.Pending())
	}

	const k = 200
	timers := make([]Timer, k)
	for i := range timers {
		timers[i] = e.NewTimer(float64(i%7), func() {})
	}
	for i := range timers[:k-10] {
		timers[i].Stop()
	}
	if len(e.pq) >= k/2 || e.Pending() != k {
		t.Fatalf("stopped %d of %d timers: %d calendar entries, Pending %d; want < %d and %d",
			k-10, k, len(e.pq), e.Pending(), k/2, k)
	}
	before := e.Processed()
	e.Run(0)
	if e.Processed()-before != k {
		t.Fatalf("drain ran %d events, want %d", e.Processed()-before, k)
	}
}
