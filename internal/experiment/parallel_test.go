package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rmcast/internal/rng"
)

// figureBytes renders a figure through every text emitter, so "byte
// identical" below means identical down to the formatted output the cmd
// tools print, not just DeepEqual on the structs.
func figureBytes(t *testing.T, f *Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGroupSizeSweepParallelDeterminism asserts that the worker-pool run of
// a group-size sweep is byte-identical to the legacy serial run for the
// same seed, across several worker counts and seeds.
func TestGroupSizeSweepParallelDeterminism(t *testing.T) {
	// Distinct sweep seeds derived the way parallel workers would: one
	// SplitN fan-out from a fixed root stream.
	seeds := rng.New(2026).SplitN(2)
	for _, sr := range seeds {
		seed := sr.Uint64()
		base := GroupSizeSweep{
			Sizes:    []int{40, 60},
			Loss:     0.05,
			Packets:  20,
			Interval: 50,
			// Two replicates so the merge path is covered too.
			Replicates: 2,
			BaseSeed:   seed,
		}
		serial := base
		serial.Parallel = 1
		wantLat, wantBw, err := serial.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par := base
			par.Parallel = workers
			gotLat, gotBw, err := par.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotLat, wantLat) || !reflect.DeepEqual(gotBw, wantBw) {
				t.Fatalf("seed %d: parallel=%d figures differ from serial", seed, workers)
			}
			if !bytes.Equal(figureBytes(t, gotLat), figureBytes(t, wantLat)) ||
				!bytes.Equal(figureBytes(t, gotBw), figureBytes(t, wantBw)) {
				t.Fatalf("seed %d: parallel=%d output bytes differ from serial", seed, workers)
			}
		}
	}
}

// TestLossSweepParallelDeterminism is the same assertion for the loss
// sweep (Figures 7/8 shape).
func TestLossSweepParallelDeterminism(t *testing.T) {
	base := LossSweep{
		Routers:    60,
		LossPcts:   []float64{5, 10},
		Packets:    20,
		Interval:   50,
		Replicates: 1,
		BaseSeed:   2003,
	}
	serial := base
	serial.Parallel = 1
	wantLat, wantBw, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 4
	gotLat, gotBw, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLat, wantLat) || !reflect.DeepEqual(gotBw, wantBw) {
		t.Fatal("parallel loss sweep differs from serial")
	}
	if !bytes.Equal(figureBytes(t, gotLat), figureBytes(t, wantLat)) ||
		!bytes.Equal(figureBytes(t, gotBw), figureBytes(t, wantBw)) {
		t.Fatal("parallel loss sweep output bytes differ from serial")
	}
}

// TestAblationSweepParallel smoke-tests the pool through the ablation
// wrapper (many protocols, small topology).
func TestAblationSweepParallel(t *testing.T) {
	a := AblationSweep{
		Routers:  50,
		LossPcts: []float64{5},
		Packets:  15,
		Interval: 50,
		BaseSeed: 2003,
		Parallel: 4,
	}
	lat, bw, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 1 || len(bw.Rows) != 1 {
		t.Fatalf("ablation rows = %d/%d, want 1/1", len(lat.Rows), len(bw.Rows))
	}
	for _, proto := range AblationProtocols {
		if _, ok := lat.Rows[0].Points[proto]; !ok {
			t.Fatalf("missing ablation point for %s", proto)
		}
	}
}

// TestEachErrorIndexDeterministic asserts the pool reports the lowest
// failing index regardless of worker count, and that the serial path stops
// at it.
func TestEachErrorIndexDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		idx, err := Each(6, workers, func(i int) error {
			calls.Add(1)
			if i == 2 || i == 4 {
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if idx != 2 || err == nil || err.Error() != "cell 2" {
			t.Fatalf("parallel=%d: got (%d, %v), want (2, cell 2)", workers, idx, err)
		}
		if workers == 1 && calls.Load() != 3 {
			t.Fatalf("serial path ran %d calls, want 3 (stop at the failure)", calls.Load())
		}
	}
	if idx, err := Each(3, 4, func(int) error { return nil }); idx != -1 || err != nil {
		t.Fatalf("clean run: got (%d, %v), want (-1, nil)", idx, err)
	}
}

// TestSweepErrorNamesCell asserts a failing sweep names its cell by row
// label, protocol and replicate, identically at any worker count.
func TestSweepErrorNamesCell(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		l := LossSweep{
			Routers:    40,
			LossPcts:   []float64{5, 10},
			Protocols:  []string{"RP", "NO-SUCH"},
			Packets:    5,
			Interval:   50,
			Replicates: 2,
			BaseSeed:   1,
			Parallel:   workers,
		}
		_, _, err := l.Run()
		if err == nil {
			t.Fatalf("parallel=%d: expected error", workers)
		}
		if !strings.HasPrefix(err.Error(), `p=5% NO-SUCH rep 0: `) {
			t.Fatalf("parallel=%d: error %q does not name the cell", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("parallel=%d: error %q, want %q", workers, err, want)
		}
	}
}
