package sim

import (
	"math"
	"slices"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// cmpArrival orders batch entries by (at, seq), the calendar's order: the
// reference the batch sort is held to.
func cmpArrival(x, y arrival) int {
	switch {
	case x.at < y.at:
		return -1
	case x.at > y.at:
		return 1
	case x.seq < y.seq:
		return -1
	case x.seq > y.seq:
		return 1
	}
	return 0
}

// fuzzBatch decodes a delivery batch from bytes: data[0] repeats the body up
// to 64 times, so batches pass sortRun and batchKeep, and each body byte is
// one entry whose instant is one of 32 coarse values, exactly or one or two
// ulps above it. Entries take ascending seq, as addArrival stamps them.
func fuzzBatch(data []byte) []arrival {
	if len(data) < 2 {
		return nil
	}
	reps, body := 1+int(data[0])%64, data[1:]
	a := make([]arrival, 0, reps*len(body))
	for r := 0; r < reps; r++ {
		for _, b := range body {
			at := float64((b>>3)^byte(r&31)) * 1.5
			for k := b & 7 % 3; k > 0; k-- {
				at = math.Nextafter(at, math.Inf(1))
			}
			a = append(a, arrival{at: at, seq: uint64(len(a) + 1), node: graph.NodeID(len(a)), pkt: int32(r)})
		}
	}
	return a
}

// FuzzSortArrivals compares the batch sort with slices.SortFunc over
// cmpArrival on batches with tied and one-ulp-apart instants, in one engine
// whose scratch and spares carry over from batch to batch.
func FuzzSortArrivals(f *testing.F) {
	f.Add([]byte{0, 9, 3, 9, 1, 0, 17, 200, 9})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{40, 255, 8, 16, 0, 1, 2, 129, 64, 7, 15, 23, 31, 39, 47, 55, 63})
	f.Add([]byte{5, 0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136})
	e := NewEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzBatch(data)
		want := slices.Clone(a)
		slices.SortFunc(want, cmpArrival)
		for range 2 {
			got := slices.Clone(a)
			e.sortArrivals(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d entries: batch sort differs from (at, seq) order", len(a))
			}
		}
	})
}

// TestAllocsSortArrivals budgets the batch sort at zero allocations once
// warm, for batches from one entry to three times batchKeep, in order and
// not: the engine's scratch serves the small ones and a spare the large.
func TestAllocsSortArrivals(t *testing.T) {
	e := NewEngine()
	r := rng.New(5)
	var batches, work [][]arrival
	for _, n := range []int{1, 7, sortRun + 1, 300, batchKeep, 3 * batchKeep} {
		a := make([]arrival, n)
		for i := range a {
			a[i] = arrival{at: float64(r.Intn(n/4 + 2)), seq: uint64(i + 1)}
		}
		sorted := slices.Clone(a)
		slices.SortFunc(sorted, cmpArrival)
		batches = append(batches, a, sorted)
		work = append(work, make([]arrival, n), make([]arrival, n))
	}
	cycle := func() {
		for i, a := range batches {
			copy(work[i], a)
			e.sortArrivals(work[i])
		}
	}
	cycle()
	for i, w := range work {
		if !slices.IsSortedFunc(w, cmpArrival) {
			t.Fatalf("batch %d (%d entries) left out of (at, seq) order", i, len(w))
		}
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("sorting %d batches allocates %v, want 0", len(batches), avg)
	}
}
