package rmcast_test

// Runnable godoc examples for the public API. Outputs are deterministic
// because every stochastic component is seeded.

import (
	"fmt"

	"rmcast"
)

// ExampleStrategyFor computes one client's prioritized recovery list on a
// hand-built topology where the source is distant and a peer is nearby.
func ExampleStrategyFor() {
	b := rmcast.NewBuilder()
	src := b.Source()
	r1, r2 := b.Router(), b.Router()
	b.TreeLink(src, r1, 20) // slow long-haul toward the source
	b.TreeLink(r1, r2, 1)
	u := b.Client()
	b.TreeLink(r2, u, 1)
	peer := b.Client()
	b.TreeLink(r2, peer, 1)
	topo, err := b.Build()
	if err != nil {
		panic(err)
	}

	st, err := rmcast.StrategyFor(topo, u, rmcast.DefaultPlannerOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("peers in plan: %d\n", len(st.Peers))
	fmt.Printf("first hop is the LAN peer: %v\n", len(st.Peers) > 0 && st.Peers[0].Peer == peer)
	fmt.Printf("expected delay beats the %v ms source RTT: %v\n",
		st.SourceRTT, st.ExpectedDelay < st.SourceRTT)
	// Output:
	// peers in plan: 1
	// first hop is the LAN peer: true
	// expected delay beats the 44 ms source RTT: true
}

// ExampleSimulate runs a deterministic session and prints the recovery
// outcome.
func ExampleSimulate() {
	topo, err := rmcast.NewTopology(rmcast.DefaultTopologyConfig(40), 7)
	if err != nil {
		panic(err)
	}
	cfg := rmcast.DefaultSessionConfig()
	cfg.Packets = 20
	res, err := rmcast.Simulate(topo, "RP", cfg, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("all %d losses recovered: %v\n",
		res.Stats.Losses, res.Stats.Recoveries == res.Stats.Losses)
	// Output:
	// all 100 losses recovered: true
}

// ExampleProtocols lists the registered recovery protocols.
func ExampleProtocols() {
	for _, p := range rmcast.Protocols() {
		fmt.Println(p)
	}
	// Output:
	// SRM
	// RMA
	// RP
	// RP-AWARE
	// RP-NOSRC
	// RP-NAK
	// RP-SUBGROUP
	// SRC
	// SRM-HONEST
	// SRM-ADAPT
	// FEC
	// ACK
	// RP-RESILIENT
	// RP-FAILOVER
	// COOP
}

// ExampleNewRoster shows incremental strategy maintenance under churn.
func ExampleNewRoster() {
	topo, err := rmcast.NewTopology(rmcast.DefaultTopologyConfig(80), 5)
	if err != nil {
		panic(err)
	}
	roster, err := rmcast.NewRoster(topo, rmcast.DefaultPlannerOptions())
	if err != nil {
		panic(err)
	}
	v := topo.Clients[0]
	affected, err := roster.Leave(v)
	if err != nil {
		panic(err)
	}
	fmt.Printf("leave replanned %d of %d clients\n", len(affected), len(topo.Clients)-1)
	fmt.Printf("left member inactive: %v\n", !roster.Active(v))
	// Output:
	// leave replanned 4 of 32 clients
	// left member inactive: true
}

// ExampleLinkStateRouting runs a session over the converged OSPF-style
// substrate instead of the omniscient oracle.
func ExampleLinkStateRouting() {
	topo, err := rmcast.NewTopology(rmcast.DefaultTopologyConfig(40), 6)
	if err != nil {
		panic(err)
	}
	router, stats := rmcast.LinkStateRouting(topo, 0.1, 7)
	fmt.Printf("flooding converged: %v\n", stats.ConvergenceMs > 0 && stats.Messages > 0)

	cfg := rmcast.DefaultSessionConfig()
	cfg.Packets = 20
	res, err := rmcast.SimulateFull(topo, "RP", cfg, 8, router, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fully recovered: %v\n", res.Stats.Unrecovered == 0)
	// Output:
	// flooding converged: true
	// fully recovered: true
}
