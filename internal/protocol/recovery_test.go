package protocol

import (
	"cmp"
	"slices"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/topology"
)

// refKey and refRec are the reference model of the recovery table, written
// the way the engines kept their recoveries before it: a map keyed by
// (client, seq), a parked flag, and a key scan sorted by seq per walk.
type refKey struct {
	c   graph.NodeID
	seq int
}

type refRec struct {
	id     int
	parked bool
}

type refTable map[refKey]*refRec

// walk visits c's recoveries the old way: snapshot the keys, sort them by
// seq, and skip an entry that was closed (or replaced) during the walk.
func (m refTable) walk(c graph.NodeID, f func(k refKey, r *refRec)) {
	var ks []refKey
	for k := range m {
		if k.c == c {
			ks = append(ks, k)
		}
	}
	slices.SortFunc(ks, func(a, b refKey) int { return cmp.Compare(a.seq, b.seq) })
	snap := make([]*refRec, len(ks))
	for i, k := range ks {
		snap[i] = m[k]
	}
	for i, k := range ks {
		if m[k] == snap[i] {
			f(k, snap[i])
		}
	}
}

// FuzzRecoveries drives the session's recovery table and the reference
// model through one byte-decoded sequence of Open, Close, Park, Resume and
// Recoveries calls on an echo-engine session. Walk callbacks close later
// seqs of the client and open other seqs mid-walk, as FEC's decode does.
// Every visit order, parked flag and open count must agree, and at the end
// exactly the open, un-parked recoveries' timers fire.
func FuzzRecoveries(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 7, 2, 0, 3, 0, 4, 9})
	f.Add([]byte{5, 2, 5, 4, 10, 6, 2, 0, 8, 1, 3, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 3, 4, 3, 5, 3, 6, 4, 7})
	f.Add([]byte{0, 1, 1, 1, 0, 1, 6, 1, 4, 1, 4, 2, 2, 0, 3, 1})
	topo, err := topology.Chain(3, 1, []int{1, 2})
	if err != nil {
		f.Fatal(err)
	}
	clients := topo.Clients
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, err := NewSession(topo, &echoEngine{}, Config{Packets: 1, Interval: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The table side: ids numbers the opened records, and each armed
		// timer marks its record's id as fired.
		ids, fired, tableIDs := map[*Recovery]int{}, map[int]bool{}, 0
		arm := func(r *Recovery) {
			id := ids[r]
			r.Timer = s.Eng.NewTimer(1, func() { fired[id] = true })
		}
		tableOpen := func(c graph.NodeID, seq int) bool {
			r := s.Open(c, seq)
			if r != nil {
				tableIDs++
				ids[r] = tableIDs
				arm(r)
			}
			return r != nil
		}
		tableClose := func(c graph.NodeID, seq int) bool {
			r := s.Recovery(c, seq)
			if r != nil {
				s.Close(c, r)
			}
			return r != nil
		}
		// The reference side.
		model, modelIDs := refTable{}, 0
		modelOpen := func(c graph.NodeID, seq int) bool {
			if _, dup := model[refKey{c, seq}]; dup {
				return false
			}
			modelIDs++
			model[refKey{c, seq}] = &refRec{id: modelIDs}
			return true
		}
		modelClose := func(c graph.NodeID, seq int) bool {
			_, ok := model[refKey{c, seq}]
			delete(model, refKey{c, seq})
			return ok
		}
		// mutate is a walk callback's side effect, chosen by byte m: none,
		// close a later seq of the client, or open another seq.
		mutate := func(openSeq, closeSeq func(graph.NodeID, int) bool, c graph.NodeID, seq int, m byte) {
			switch m % 3 {
			case 1:
				closeSeq(c, seq+1+int(m/3)%4)
			case 2:
				openSeq(c, int(m/3)%16)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, c, arg := ops[i]%5, clients[int(ops[i]/5)%len(clients)], ops[i+1]
			var got, want []int
			switch op {
			case 0:
				if tableOpen(c, int(arg)%16) != modelOpen(c, int(arg)%16) {
					t.Fatalf("Open(%d, %d) disagrees with the reference", c, arg%16)
				}
			case 1:
				if tableClose(c, int(arg)%16) != modelClose(c, int(arg)%16) {
					t.Fatalf("Recovery(%d, %d) disagrees with the reference", c, arg%16)
				}
			case 2:
				s.Park(c)
				model.walk(c, func(_ refKey, r *refRec) { r.parked = true })
			case 3:
				s.Resume(c, func(r *Recovery) {
					got = append(got, r.Seq)
					arm(r)
					mutate(tableOpen, tableClose, c, r.Seq, arg+byte(len(got)))
				})
				model.walk(c, func(k refKey, r *refRec) {
					if r.parked {
						r.parked = false
						want = append(want, k.seq)
						mutate(modelOpen, modelClose, c, k.seq, arg+byte(len(want)))
					}
				})
			case 4:
				s.Recoveries(c, func(r *Recovery) {
					got = append(got, r.Seq)
					mutate(tableOpen, tableClose, c, r.Seq, arg+byte(len(got)))
				})
				model.walk(c, func(k refKey, _ *refRec) {
					want = append(want, k.seq)
					mutate(modelOpen, modelClose, c, k.seq, arg+byte(len(want)))
				})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d on client %d: visited %v, reference %v", op, c, got, want)
			}
			if n := s.OpenRecoveries(); n != len(model) {
				t.Fatalf("OpenRecoveries = %d, reference %d", n, len(model))
			}
			for k, m := range model {
				if r := s.Recovery(k.c, k.seq); r == nil || r.Parked != m.parked || ids[r] != m.id {
					t.Fatalf("recovery (%d, %d) = %+v, reference %+v", k.c, k.seq, r, m)
				}
			}
		}
		s.Eng.Run(0)
		for _, m := range model {
			if fired[m.id] == m.parked {
				t.Fatalf("recovery %d: timer fired %v, parked %v", m.id, fired[m.id], m.parked)
			}
			delete(fired, m.id)
		}
		for id := range fired {
			t.Fatalf("timer of closed recovery %d fired", id)
		}
	})
}
