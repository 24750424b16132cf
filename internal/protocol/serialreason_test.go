package protocol_test

// Tests for the serial-fallback bookkeeping: when a run requests sharding
// (SimWorkers >= 2) the result must say whether it actually sharded, and if
// not, why — the reason rmsim surfaces to the user.

import (
	"strings"
	"testing"

	"rmcast/internal/protocol"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

func reasonTopo(t *testing.T) *topology.Network {
	t.Helper()
	cfg := topology.DefaultTreeConfig(64)
	net, err := topology.GenerateTree(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func reasonRun(t *testing.T, e protocol.Engine, cfg protocol.Config) *protocol.Result {
	t.Helper()
	s, err := protocol.NewSession(reasonTopo(t), e, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatal("incomplete run")
	}
	return res
}

func TestSerialReasonReported(t *testing.T) {
	base := protocol.Config{Packets: 10, Interval: 20, SimWorkers: 4}

	// An engine with no ShardCloner must fall back and name itself.
	res := reasonRun(t, srm.New(srm.Options{}), base)
	if res.Sharded {
		t.Fatal("SRM claimed to have sharded")
	}
	if !strings.Contains(res.SerialReason, "SRM") {
		t.Fatalf("fallback reason does not name the engine: %q", res.SerialReason)
	}

	// An eligible run shards and carries no reason.
	res = reasonRun(t, rpproto.New(rpproto.Options{}), base)
	if !res.Sharded {
		t.Fatalf("eligible RP run did not shard: %q", res.SerialReason)
	}
	if res.SerialReason != "" {
		t.Fatalf("sharded run carries a fallback reason: %q", res.SerialReason)
	}

	// A run that never requested sharding reports neither.
	serial := base
	serial.SimWorkers = 0
	res = reasonRun(t, srm.New(srm.Options{}), serial)
	if res.Sharded || res.SerialReason != "" {
		t.Fatalf("serial-by-default run got parallel bookkeeping: sharded=%v reason=%q",
			res.Sharded, res.SerialReason)
	}
}
