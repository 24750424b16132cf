package experiment

// Golden-digest gate for the conservative parallel engine: a run with
// Config.SimWorkers ∈ {1, 2, 4, 8} must be byte-identical to the serial
// run — same goldenDigests constants, same chaos/adversarial outcomes. The
// plain variants genuinely execute sharded (the Figure-5 cell has 50
// clients, above the eligibility floor); the queued variants and the
// mutation schedule exercise the automatic serial fallback, which must also
// be exact. Worker-count invariance is by construction (the shard count is
// a function of the group size only), and these tests pin it empirically.

import (
	"fmt"
	"strings"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// parallelWorkerCounts are the worker counts the digest gates run at.
var parallelWorkerCounts = []int{1, 2, 4, 8}

// TestGoldenDigestsParallel reruns the serial golden cells at every worker
// count and asserts the digests are unchanged.
func TestGoldenDigestsParallel(t *testing.T) {
	for _, proto := range []string{"SRM", "RMA", "RP", "SRC", "COOP"} {
		for _, variant := range []string{"plain", "queued"} {
			for _, w := range parallelWorkerCounts {
				key := proto + "/" + variant
				t.Run(fmt.Sprintf("%s/w%d", key, w), func(t *testing.T) {
					res := goldenRunWorkers(t, proto, variant == "queued", w)
					if got, want := ResultDigest(res), goldenDigests[key]; got != want {
						t.Errorf("digest %s at %d workers = %s, want %s (parallel output diverged from serial)",
							key, w, got, want)
					}
				})
			}
		}
	}
}

// goldenRunWorkers is goldenRun with a worker count.
func goldenRunWorkers(t *testing.T, proto string, queued bool, workers int) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(proto)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 40, Interval: 50, SimWorkers: workers}
	if queued {
		cfg.PacketTime = 0.2
		cfg.DetectLag = 4
	}
	s, err := protocol.NewSession(topo, eng, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete || res.Stats.Unrecovered > 0 {
		t.Fatalf("%s queued=%v workers=%d: incomplete run (unrecovered=%d complete=%v)",
			proto, queued, workers, res.Stats.Unrecovered, res.Complete)
	}
	return res
}

// chaosParitySchedule is an eligible fault schedule — crash windows and a
// link outage, no bursts or mutation — so the parallel runner actually
// shards it: crash checks, host transition events, and deferred detections
// all cross the shard machinery.
func chaosParitySchedule(topo *topology.Network) *fault.Schedule {
	s := &fault.Schedule{}
	s.CrashWindow(topo.Clients[3], 120, 400)
	s.CrashWindow(topo.Clients[11], 300, 900)
	s.CrashWindow(topo.Clients[20], 650, 1300)
	s.LinkDownWindow(topo.TreeEdges[5], 200, 450)
	s.LinkDownWindow(topo.TreeEdges[20], 500, 640)
	return s
}

// adversarialParitySchedule adds a full-intensity message-plane mutator over
// the stream's span, which the parallel mode cannot reproduce — the run must
// run as one shard, the serial run.
func adversarialParitySchedule(topo *topology.Network, cfg protocol.Config) *fault.Schedule {
	s := chaosParitySchedule(topo)
	s.SetMutation(fault.MutationFromIntensity(1, float64(cfg.Packets)*cfg.Interval))
	return s
}

// TestParallelParityChaos asserts serial/parallel byte-equivalence for all
// five engines under the eligible chaos schedule (genuinely sharded) and the
// adversarial schedule (serial fallback), at every worker count. SRM has no
// CloneForShard, so its rows compare two serial runs.
func TestParallelParityChaos(t *testing.T) {
	for _, kind := range []string{"chaos", "adversarial"} {
		for _, proto := range []string{"SRM", "RMA", "RP", "SRC", "COOP"} {
			t.Run(kind+"/"+proto, func(t *testing.T) {
				serial := parityRun(t, proto, kind, 0)
				want := ResultDigest(serial)
				for _, w := range []int{2, 4, 8} {
					res := parityRun(t, proto, kind, w)
					if got := ResultDigest(res); got != want {
						t.Errorf("%s %s at %d workers: digest %s, want serial %s",
							kind, proto, w, got, want)
					}
					checkParityShape(t, proto, kind, w, res)
				}
			})
		}
	}
}

// checkParityShape asserts how a parity run at w ≥ 2 workers was laid out:
// SRM always runs as one shard, an adversarial run of any other engine falls
// back to one shard because of the mutator, and a chaos run shards.
func checkParityShape(t *testing.T, proto, kind string, w int, res *protocol.Result) {
	t.Helper()
	switch {
	case proto == "SRM":
		if res.Sharded {
			t.Errorf("%s SRM at %d workers: sharded without CloneForShard", kind, w)
		}
	case kind == "adversarial":
		if res.Sharded || !strings.HasPrefix(res.SerialReason, "message-plane mutation") {
			t.Errorf("adversarial %s at %d workers: sharded=%v reason %q, want the mutator's serial fallback",
				proto, w, res.Sharded, res.SerialReason)
		}
	case !res.Sharded:
		t.Errorf("chaos %s at %d workers: ran serially: %s", proto, w, res.SerialReason)
	}
}

// parityRun executes one fixed-seed faulted run at the given worker count
// (0 = serial).
func parityRun(t *testing.T, proto, kind string, workers int) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 40, Interval: 50, SimWorkers: workers}
	cfg.Fault = chaosParitySchedule(topo)
	if kind == "adversarial" {
		cfg.Fault = adversarialParitySchedule(topo, cfg)
	}
	eng, err := NewEngine(proto)
	if err != nil {
		t.Fatal(err)
	}
	s, err := protocol.NewSession(topo, eng, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("%s %s workers=%d: incomplete run", kind, proto, workers)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%s %s workers=%d: oracle violations %v", kind, proto, workers, res.Violations)
	}
	if kind == "adversarial" && res.Stats.Malformed == 0 {
		t.Fatalf("adversarial %s workers=%d: the mutator corrupted nothing", proto, workers)
	}
	return res
}
