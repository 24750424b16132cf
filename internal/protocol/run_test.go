package protocol

import (
	"fmt"
	"strings"
	"testing"

	"rmcast/internal/rng"
	"rmcast/internal/sim"
	"rmcast/internal/topology"
)

// earlyRepairEngine is the echo engine plus a bug: Attach schedules, at
// t = 0, a repair of the last packet — not sent until the end of the stream —
// from the source to the first client. Under CheckStrict the oracle panics
// when it arrives. Shard clones carry the bug too.
type earlyRepairEngine struct{ echoEngine }

func (e *earlyRepairEngine) Attach(s *Session) {
	e.echoEngine.Attach(s)
	s.Eng.Schedule(0, func() {
		s.Net.Unicast(s.Topo.Clients[0], sim.Packet{Kind: sim.Repair,
			Seq: s.cfg.Packets - 1, From: s.Topo.Source})
	})
}

func (e *earlyRepairEngine) CloneForShard() Engine { return &earlyRepairEngine{} }

// runPanic runs the session and returns what Run panicked with, as a string
// ("" when it did not panic). Recovering here proves the panic reached the
// caller's goroutine: one escaping a worker goroutine would kill the binary.
func runPanic(s *Session) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	s.Run()
	return ""
}

// TestRunPanicsSurfaceOnCaller: an oracle panic inside the event loop
// reaches Run's caller on both paths — unwrapped from a serial (one-shard)
// run, which steps on the caller's goroutine, and wrapped with the worker's
// stack from a sharded run.
func TestRunPanicsSurfaceOnCaller(t *testing.T) {
	topo, err := topology.GenerateTree(topology.DefaultTreeConfig(64), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	const oracleMsg = "check: invariant violated: repair for never-sent seq 11"
	for _, tc := range []struct {
		workers int
		prefix  string
	}{
		{0, oracleMsg},
		{4, "protocol: shard worker panic: " + oracleMsg},
	} {
		cfg := Config{Packets: 12, Interval: 10, SimWorkers: tc.workers}
		s, err := NewSession(topo, &earlyRepairEngine{}, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		if msg := runPanic(s); !strings.HasPrefix(msg, tc.prefix) {
			t.Errorf("workers=%d: Run panicked with %q, want prefix %q", tc.workers, msg, tc.prefix)
		}
	}
}
