package protocol

import (
	"cmp"
	"slices"

	"rmcast/internal/sim"
)

// detectProgram is one engine's slice of the session program: the source's
// packet sends and, under DetectIdeal, one loss detection per (client,
// packet) at sentAt[seq] + offset + DetectLag + detectEps, where offset is the
// client's loss-free arrival delay (Net.WouldArrive).
//
// Scheduling that program eagerly puts Packets × clients detect events in
// the calendar at t = 0. Instead the clients are sorted once by (offset,
// position), each packet keeps one cursor into that order, and a packet's
// next detect event is pushed only when the one before it pops, so the
// calendar holds at most one detect event per packet. Every event is pushed
// at the tie-break sequence number the eager schedule would have given it —
// packet-major, the send first, then the clients in position order — from a
// block set aside with sim.Engine.ReserveSeq, so the (at, seq) firing order,
// and with it every run, is exactly the eager schedule's.
//
// For one packet the detect instant is monotone in the offset (each float
// addition rounds monotonically), so the sorted order is the packet's time
// order. Only a run of equal instants needs care: exactly tied offsets are
// already in position order, but distinct offsets can round to one instant
// (offsets one ulp apart mostly do once a send time is added), and then the
// cursor fires that run in position order, as the eager schedule would.
type detectProgram struct {
	eng    *sim.Engine
	target sim.Callee // receives opSendData(seq) and opDetect(client, seq)
	sentAt []float64
	lag    float64
	// byOff lists the detecting clients sorted by (off, pos).
	byOff   []detectEntry
	cursors []detectCursor // one per packet
	// first is the reserved sequence number of packet 0's first event;
	// packet seq's block starts at first + seq·stride, with the send (when
	// this engine fires it) ahead of the clients' detections.
	first  uint64
	stride int
	sends  int
}

// detectEntry is one detecting client: its loss-free arrival offset, its
// position in the eager per-packet order, and its session client index.
type detectEntry struct {
	off    float64
	pos    int32
	client int32
}

// detectCursor is one packet's place in byOff: run holds the entries still
// to fire at the shared instant at, in position order, and next is the byOff
// index where the packet's following run starts.
type detectCursor struct {
	at   float64
	run  []detectEntry
	next int
}

// scheduleProgram lays out this session engine's slice of the program: the
// packet sends when sends is set; under DetectIdeal, the detections of the
// clients the session holds rows for — all of them in a one-shard run, a
// domain's own in a sharded one; under gap and session detection, which
// never shard, the tail sweep and the heartbeats. It is the only place any
// of them is scheduled.
func (s *Session) scheduleProgram(sends bool) {
	var byOff []detectEntry
	if s.cfg.Detection == DetectIdeal {
		for i, r := range s.rows {
			if r != nil {
				byOff = append(byOff, detectEntry{off: s.Net.WouldArrive(s.Topo.Clients[i]),
					pos: int32(len(byOff)), client: int32(i)})
			}
		}
	}
	layOutProgram(s.Eng, s, s.sentAt, s.cfg.DetectLag, byOff, sends)
	if s.cfg.Detection == DetectIdeal {
		return
	}
	// Tail sweep: losses of the final packets are never exposed by a later
	// arrival (and the final heartbeat can itself be lost), so declare them
	// after a grace period.
	var maxArrive float64
	for _, c := range s.Topo.Clients {
		maxArrive = max(maxArrive, s.Net.WouldArrive(c))
	}
	end := float64(s.cfg.Packets-1) * s.cfg.Interval
	s.Eng.Schedule(end+maxArrive+s.cfg.tailLag(), func() {
		for i, c := range s.Topo.Clients {
			for seq := 0; seq < s.cfg.Packets; seq++ {
				s.detectLoss(i, c, seq)
			}
		}
	})
	if s.cfg.Detection == DetectSession {
		hb := s.cfg.heartbeat()
		for at := hb; at <= end+hb; at += hb {
			highest := min(int(at/s.cfg.Interval), s.cfg.Packets-1)
			s.Eng.ScheduleCall(at, s, opHeartbeat, highest, 0)
		}
	}
}

// layOutProgram reserves the program's sequence numbers on eng, pushes every
// send and each packet's first detect event, and leaves the rest to the
// cursors. byOff lists the detecting clients by position; it is sorted in
// place.
func layOutProgram(eng *sim.Engine, target sim.Callee, sentAt []float64, lag float64,
	byOff []detectEntry, sends bool) {
	slices.SortFunc(byOff, func(x, y detectEntry) int {
		if c := cmp.Compare(x.off, y.off); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
	p := &detectProgram{eng: eng, target: target, sentAt: sentAt, lag: lag,
		byOff: byOff, stride: len(byOff)}
	if sends {
		p.sends = 1
		p.stride++
	}
	p.first = eng.ReserveSeq(len(sentAt) * p.stride)
	p.cursors = make([]detectCursor, len(sentAt))
	for seq, at := range sentAt {
		if sends {
			eng.ScheduleCallSeq(at, p.first+uint64(seq*p.stride), target, opSendData, seq, 0)
		}
		p.push(seq)
	}
}

// detectAt is the eager schedule's detect instant, evaluated in its order.
func (p *detectProgram) detectAt(seq int, off float64) float64 {
	return p.sentAt[seq] + off + p.lag + detectEps
}

// push schedules packet seq's next detect event, opening the packet's next
// run of equal instants once the current one is spent. It does nothing when
// the packet has no detections left.
func (p *detectProgram) push(seq int) {
	c := &p.cursors[seq]
	if len(c.run) == 0 {
		if c.next == len(p.byOff) {
			return
		}
		k := c.next
		at := p.detectAt(seq, p.byOff[k].off)
		end := k + 1
		for end < len(p.byOff) && p.detectAt(seq, p.byOff[end].off) == at {
			end++
		}
		run := p.byOff[k:end]
		byPos := func(x, y detectEntry) int { return cmp.Compare(x.pos, y.pos) }
		if !slices.IsSortedFunc(run, byPos) {
			// Distinct offsets rounded to one instant.
			run = slices.Clone(run)
			slices.SortFunc(run, byPos)
		}
		c.at, c.run, c.next = at, run, end
	}
	e := c.run[0]
	p.eng.ScheduleCallSeq(c.at, p.first+uint64(seq*p.stride+p.sends)+uint64(e.pos), p, 0, seq, 0)
}

// OnSimEvent implements sim.Callee: packet seq's pending detect event fired.
// Its successor is pushed before the detection is dispatched; whatever the
// dispatch schedules takes fresh sequence numbers, which order after every
// reserved one at the same instant.
func (p *detectProgram) OnSimEvent(_, seq, _ int) {
	c := &p.cursors[seq]
	e := c.run[0]
	c.run = c.run[1:]
	p.push(seq)
	p.target.OnSimEvent(opDetect, int(e.client), seq)
}
