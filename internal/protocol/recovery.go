package protocol

import (
	"cmp"
	"slices"

	"rmcast/internal/graph"
	"rmcast/internal/sim"
)

// Recovery is one client's in-flight recovery of one lost packet — of one
// block, for a block-level engine. It is the state of the paper's recovery
// procedure (§2.2): the client asks a prioritized list of hosts one at a
// time, with one timeout per attempt, and falls back to the source. The
// session keeps each client's open recoveries in the client's row, in
// ascending Seq order, so opening, closing, parking, resuming and the
// seq-ordered walk are written once for every request engine.
type Recovery struct {
	// Seq is the lost sequence number, or the block number of a block-level
	// engine.
	Seq int
	// Step is the engine's position in its walk: a peer-list index, or a
	// solicitation round.
	Step int
	// Retry counts the consecutive attempts at the current step.
	Retry int
	// Target is the host the armed attempt is waiting on.
	Target graph.NodeID
	// Timer is the armed attempt timeout (zero while parked).
	Timer sim.Timer
	// Parked marks a recovery whose owner is crashed: no timer runs until
	// Resume.
	Parked bool
	closed bool
}

// Closed reports whether the recovery was closed, so a timer callback that
// outlived it can return.
func (r *Recovery) Closed() bool { return r.closed }

func bySeq(r *Recovery, seq int) int { return cmp.Compare(r.Seq, seq) }

// Open starts client c's recovery of seq and returns it, or nil when c
// already has seq open (or is not a client).
func (s *Session) Open(c graph.NodeID, seq int) *Recovery {
	idx := s.clientIndex(c)
	if idx < 0 {
		return nil
	}
	row := s.rows[idx]
	i, open := slices.BinarySearchFunc(row.recs, seq, bySeq)
	if open {
		return nil
	}
	r := &Recovery{Seq: seq}
	row.recs = slices.Insert(row.recs, i, r)
	return r
}

// Recovery returns host's open recovery of seq, or nil (always nil for a
// non-client).
func (s *Session) Recovery(host graph.NodeID, seq int) *Recovery {
	idx := s.clientIndex(host)
	if idx < 0 {
		return nil
	}
	recs := s.rows[idx].recs
	if i, open := slices.BinarySearchFunc(recs, seq, bySeq); open {
		return recs[i]
	}
	return nil
}

// Close stops r's timer and removes r from client c's table. Closing a
// closed recovery does nothing.
func (s *Session) Close(c graph.NodeID, r *Recovery) {
	if r.closed {
		return
	}
	r.Timer.Stop()
	r.closed = true
	row := s.rows[s.clientIndex(c)]
	i, _ := slices.BinarySearchFunc(row.recs, r.Seq, bySeq)
	row.recs = slices.Delete(row.recs, i, i+1)
}

// Recoveries calls f on each of client c's open recoveries in ascending Seq
// order — the order resumed sends draw from the shared rng streams in. It
// walks a snapshot, so f may open and close recoveries of c; one closed
// during the walk is skipped.
func (s *Session) Recoveries(c graph.NodeID, f func(r *Recovery)) {
	idx := s.clientIndex(c)
	if idx < 0 || len(s.rows[idx].recs) == 0 {
		return
	}
	for _, r := range slices.Clone(s.rows[idx].recs) {
		if !r.closed {
			f(r)
		}
	}
}

// Park suspends a crashed client's open recoveries: every timer stops, so a
// permanent crash cannot re-arm retries forever and the run can quiesce.
func (s *Session) Park(c graph.NodeID) {
	s.Recoveries(c, func(r *Recovery) {
		r.Timer.Stop()
		r.Timer, r.Parked = sim.Timer{}, true
	})
}

// Resume un-parks a rebooted client's parked recoveries in ascending Seq
// order and hands each to f to re-issue.
func (s *Session) Resume(c graph.NodeID, f func(r *Recovery)) {
	s.Recoveries(c, func(r *Recovery) {
		if r.Parked {
			r.Parked = false
			f(r)
		}
	})
}

// OpenRecoveries counts the open recoveries of every client the session
// holds a row for (parked ones included).
func (s *Session) OpenRecoveries() int {
	n := 0
	for _, row := range s.rows {
		if row != nil {
			n += len(row.recs)
		}
	}
	return n
}
