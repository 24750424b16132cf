package experiment

// Golden-digest gate for an explicit domain size (Config.DomainClients):
// a domain-sharded run must be byte-identical to the serial run at every
// worker count, because the domain layout is a pure function of the tree and
// the domain size. The Figure-5 cell at DomainClients=8 partitions its group
// into ⌈clients/8⌉ domains, exercising the window machinery at domain
// granularity rather than the default 2 to 8 domains.

import (
	"fmt"
	"strings"
	"testing"

	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// TestGoldenDigestsDomains reruns the serial golden cells in domain mode at
// every worker count and asserts the digests are unchanged from serial.
func TestGoldenDigestsDomains(t *testing.T) {
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	wantK := (len(topo.Clients) + 7) / 8
	if wantK < 2 {
		t.Fatalf("fixture too small for domain mode: %d clients", len(topo.Clients))
	}
	for _, proto := range []string{"SRM", "RMA", "RP", "SRC", "COOP"} {
		for _, w := range parallelWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", proto, w), func(t *testing.T) {
				res := goldenRunDomains(t, proto, w, 8)
				if got, want := ResultDigest(res), goldenDigests[proto+"/plain"]; got != want {
					t.Errorf("domain digest %s at %d workers = %s, want %s (domain output diverged from serial)",
						proto, w, got, want)
				}
				// SRM has no CloneForShard and must fall back to serial
				// (bit-identically); the other engines must genuinely shard.
				if w >= 2 && proto != "SRM" {
					if !res.Sharded {
						t.Fatalf("%s w%d: domain run fell back to serial: %s", proto, w, res.SerialReason)
					}
					if res.Domains != wantK {
						t.Errorf("%s w%d: %d domains, want %d (=⌈%d/8⌉)",
							proto, w, res.Domains, wantK, len(topo.Clients))
					}
				}
			})
		}
	}
}

// goldenRunDomains is goldenRunWorkers with a domain size.
func goldenRunDomains(t *testing.T, proto string, workers, domainClients int) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(proto)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 40, Interval: 50, SimWorkers: workers, DomainClients: domainClients}
	s, err := protocol.NewSession(topo, eng, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete || res.Stats.Unrecovered > 0 {
		t.Fatalf("%s workers=%d domains=%d: incomplete run (unrecovered=%d complete=%v)",
			proto, workers, domainClients, res.Stats.Unrecovered, res.Complete)
	}
	return res
}

// TestDomainModeFallbackReason pins the explanation surfaced when a domain
// request cannot shard: a domain size swallowing the whole group must fall
// back to serial with a "domain mode:" reason, and the digest must still
// equal the serial golden.
func TestDomainModeFallbackReason(t *testing.T) {
	res := goldenRunDomains(t, "RP", 4, 1000)
	if res.Sharded {
		t.Fatal("single-domain run should have fallen back to serial")
	}
	if !strings.HasPrefix(res.SerialReason, "domain mode:") {
		t.Fatalf("SerialReason = %q, want a 'domain mode:' explanation", res.SerialReason)
	}
	if got, want := ResultDigest(res), goldenDigests["RP/plain"]; got != want {
		t.Errorf("fallback digest %s, want serial %s", got, want)
	}
}

// TestDomainParityChaos reruns the chaos parity schedule in domain mode —
// crash windows and link outages crossing domain boundaries must still merge
// to the serial result exactly. SRM has no CloneForShard, so its row
// compares two serial runs.
func TestDomainParityChaos(t *testing.T) {
	for _, proto := range []string{"SRM", "RMA", "RP", "SRC", "COOP"} {
		t.Run(proto, func(t *testing.T) {
			serial := parityRun(t, proto, "chaos", 0)
			want := ResultDigest(serial)
			for _, w := range []int{2, 4, 8} {
				res := domainParityRun(t, proto, w, 8)
				if got := ResultDigest(res); got != want {
					t.Errorf("chaos %s at %d workers (domain mode): digest %s, want serial %s",
						proto, w, got, want)
				}
				checkParityShape(t, proto, "chaos", w, res)
			}
		})
	}
}

// domainParityRun is parityRun under the chaos schedule with a domain size.
func domainParityRun(t *testing.T, proto string, workers, domainClients int) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	sched := chaosParitySchedule(topo)
	eng, err := NewEngine(proto)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 40, Interval: 50, Fault: sched,
		SimWorkers: workers, DomainClients: domainClients}
	s, err := protocol.NewSession(topo, eng, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("%s workers=%d: incomplete run", proto, workers)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%s workers=%d: oracle violations %v", proto, workers, res.Violations)
	}
	return res
}
