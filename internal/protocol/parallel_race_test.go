package protocol_test

// Race hammer for the conservative parallel runner: a moderately sized
// tree-topology RP run sharded across 4 workers, with crash and link-outage
// windows so host-transition events, deferred detections, and cross-shard
// repair traffic all exercise the outbox/ingest machinery. The test lives in
// an external package so it can attach a real engine (rpproto imports
// protocol, so an internal test file cannot).
//
// Under `go test -race` this is the gate that the shard pool, the window
// barriers, and the shared read-only state (routes, fault state, oracle sent
// rows) are free of data races. Without -race it doubles as a field-level
// serial/parallel parity check on a topology much larger than the golden
// cell.

import (
	"reflect"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

func raceTopo(t *testing.T) *topology.Network {
	t.Helper()
	cfg := topology.DefaultTreeConfig(320)
	net, err := topology.GenerateTree(cfg, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func raceRun(t *testing.T, topo *topology.Network, workers int) *protocol.Result {
	t.Helper()
	sched := &fault.Schedule{}
	sched.CrashWindow(topo.Clients[7], 100, 500)
	sched.CrashWindow(topo.Clients[150], 250, 800)
	sched.CrashWindow(topo.Clients[311], 600, 1200)
	sched.LinkDownWindow(topo.TreeEdges[3], 150, 400)
	sched.LinkDownWindow(topo.TreeEdges[40], 450, 700)
	cfg := protocol.Config{Packets: 25, Interval: 40, Fault: sched, SimWorkers: workers}
	s, err := protocol.NewSession(topo, rpproto.New(rpproto.Options{}), cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if workers >= 2 && !res.Sharded {
		t.Fatalf("run unexpectedly ran as one shard (%s) — the hammer would not cross shards", res.SerialReason)
	}
	if !res.Complete {
		t.Fatal("incomplete run")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	return res
}

// TestParallelRaceHammer runs the sharded path with 4 workers on a 320-client
// tree (K = 8 shards) and asserts the result is field-identical to the
// serial run. Run under -race, it hammers every cross-shard synchronization
// point; the CI test-race job picks it up automatically.
func TestParallelRaceHammer(t *testing.T) {
	topo := raceTopo(t)
	serial := raceRun(t, topo, 0)
	parallel := raceRun(t, topo, 4)
	// The execution-mode fields legitimately differ (the parallel run
	// reports Sharded and its domains); parity is about the simulation
	// outcome.
	if !parallel.Sharded {
		t.Fatal("parallel run did not shard")
	}
	parallel.Sharded, parallel.SerialReason = serial.Sharded, serial.SerialReason
	parallel.Domains = serial.Domains
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel result diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
