// Command strategy inspects the RP planning pipeline on one topology: the
// competitive equivalence classes, the candidate clients, the strategy
// graph, and the optimal prioritized list per client — with an optional
// brute-force cross-check on small instances (paper §4, Algorithm 1).
//
// Usage:
//
//	strategy -routers 50 -seed 7            # all clients, summary lines
//	strategy -routers 50 -seed 7 -client 0  # one client, full detail
//	strategy -verify                        # add brute-force optimality check
//	strategy -stress -readers 4 -churnrate 2000 -duration 3s
//
// The summary listing is served from a strategysvc snapshot and prints its
// version/epoch header, so output is correlatable with what concurrent
// readers of the service would observe. -stress runs the readers × churn
// workload against the service and reports throughput, latency quantiles,
// and the applier's batching counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/strategysvc"
	"rmcast/internal/topology"
	"rmcast/internal/viz"
)

func main() {
	var (
		routers  = flag.Int("routers", 50, "backbone router count")
		seed     = flag.Uint64("seed", 1, "topology seed")
		client   = flag.Int("client", -1, "client index for full detail (-1: all, summary)")
		verify   = flag.Bool("verify", false, "cross-check against brute force where feasible")
		noDirect = flag.Bool("nodirect", false, "restricted strategies (no direct u→S edge)")
		beta     = flag.Float64("beta", 3, "timeout factor (t0 = beta·rtt)")
		asJSON   = flag.Bool("json", false, "emit all strategies as JSON and exit")
		svgOut   = flag.String("svg", "", "with -client: write the strategy graph as SVG to this file")
		stress   = flag.Bool("stress", false, "run the strategy-service stress workload and exit")
		readers  = flag.Int("readers", 4, "with -stress: concurrent reader goroutines")
		churn    = flag.Int("churnrate", 2000, "with -stress: Join/Leave churn ops per second (0: none)")
		duration = flag.Duration("duration", 3*time.Second, "with -stress: run length")
	)
	flag.Parse()

	if *stress {
		if err := runStress(os.Stdout, *routers, *seed, *beta, !*noDirect, *readers, *churn, *duration); err != nil {
			fail(err)
		}
		return
	}

	topo, err := topology.Generate(topology.DefaultConfig(*routers), rng.New(*seed))
	if err != nil {
		fail(err)
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		fail(err)
	}
	p := core.NewPlanner(tree, route.Build(topo))
	if p.Timeout, err = proportionalTimeout(*beta); err != nil {
		fail(err)
	}
	p.AllowDirectSource = !*noDirect

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p.PlanAll()); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("topology: %d routers, %d clients, source %d, tree depth max %d\n",
		*routers, len(topo.Clients), topo.Source, maxDepth(tree))

	if *client >= 0 {
		if *client >= len(topo.Clients) {
			fail(fmt.Errorf("client index %d out of range [0,%d)", *client, len(topo.Clients)))
		}
		u := topo.Clients[*client]
		if *svgOut != "" {
			f, err := os.Create(*svgOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			if _, err := viz.StrategyGraphSVG(p.BuildStrategyGraph(u), 1000, 340).WriteTo(f); err != nil {
				fail(err)
			}
			fmt.Printf("wrote strategy graph of client %d to %s\n", u, *svgOut)
			return
		}
		detail(p, tree, u, *verify)
		return
	}

	// Serve the summary from a strategysvc snapshot so the listing carries
	// the version/epoch a concurrent reader of the service would see.
	svc := strategysvc.New(p, strategysvc.Config{})
	defer svc.Close()
	snap := svc.Snapshot()
	fmt.Printf("plan snapshot: version %d, epoch %d, members %d\n",
		snap.Version, snap.Epoch, snap.ActiveCount())
	clients := append([]graph.NodeID(nil), topo.Clients...)
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, u := range clients {
		st := snap.Get(u)
		fmt.Println(st)
		if *verify {
			checkOptimal(p, u, st)
		}
	}
}

// runStress drives the readers × churn workload and prints the measured
// numbers. It builds a pure-tree topology with tree-metric routing — the
// configuration the service's applier is designed around (churn repaired by
// the O(depth) tree-aggregate, not a full scan) and the same one the
// BenchmarkStrategyService grid measures, so the two sets of numbers are
// comparable. Chorded scan-mode topologies still work through the service
// (covered by its tests); they just bottleneck on replanning, which is a
// planner property, not a service one. Bad flag values (no clients, a beta
// that is not positive and finite, a negative reader count or churn rate, a
// non-positive duration) are errors.
func runStress(w io.Writer, routers int, seed uint64, beta float64, allowDirect bool, readers, churnRate int, d time.Duration) error {
	timeout, err := proportionalTimeout(beta)
	if err != nil {
		return err
	}
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(routers), rng.New(seed))
	if err != nil {
		return err
	}
	tree, err := mtree.Build(net)
	if err != nil {
		return err
	}
	p := core.NewPlanner(tree, route.NewTreeTables(tree))
	p.Timeout = timeout
	p.AllowDirectSource = allowDirect
	fmt.Fprintf(w, "topology: %d routers (pure tree), %d clients, tree depth max %d\n",
		routers, len(tree.Clients), maxDepth(tree))

	svc := strategysvc.New(p, strategysvc.Config{})
	defer svc.Close()
	fmt.Fprintf(w, "stress: %d readers, %d churn ops/sec, %v\n", readers, churnRate, d)
	res, err := strategysvc.Stress(svc, tree.Clients, readers, churnRate, d)
	if err != nil {
		return err
	}
	qps := float64(res.Queries) / res.Elapsed.Seconds()
	fmt.Fprintf(w, "queries: %d in %.2fs  (%.0f queries/sec)\n",
		res.Queries, res.Elapsed.Seconds(), qps)
	fmt.Fprintf(w, "latency: p50 %.0fns  p99 %.0fns\n", res.P50, res.P99)
	st := res.Stats
	fmt.Fprintf(w, "versions published: %d  (final version %d, epoch %d)\n",
		st.Published, res.Version, res.Epoch)
	fmt.Fprintf(w, "churn: %d applied, %d rejected in %d batches  (mean batch %.2f, max %d)\n",
		st.Applied, st.Rejected, st.Batches, st.MeanBatch(), st.MaxBatch)
	return nil
}

func detail(p *core.Planner, tree *mtree.Tree, u graph.NodeID, verify bool) {
	fmt.Printf("client %d: depth DS_u=%d, path to root %v\n",
		u, tree.Depth[u], tree.PathToRoot(u))
	cands := p.Candidates(u)
	fmt.Printf("candidate clients (%d competitive classes):\n", len(cands))
	for i, c := range cands {
		fmt.Printf("  %2d. peer %d  meet router %d  DS=%d  rtt=%.2fms  t0=%.2fms\n",
			i+1, c.Peer, c.Meet, c.DS, c.RTT, c.Timeout)
	}
	sg := p.BuildStrategyGraph(u)
	d := sg.Digraph()
	fmt.Printf("strategy graph: %d nodes, %d arcs (u=0, S=%d)\n",
		d.NumNodes(), d.NumArcs(), d.NumNodes()-1)
	for v := graph.NodeID(0); int(v) < d.NumNodes(); v++ {
		for _, a := range d.Out(v) {
			fmt.Printf("  %d → %d  w=%.4f\n", v, a.To, a.W)
		}
	}
	st := sg.Algorithm1()
	fmt.Printf("Algorithm 1 optimum: %s\n", st)
	if verify {
		checkOptimal(p, u, st)
	}
}

func checkOptimal(p *core.Planner, u graph.NodeID, st *core.Strategy) {
	sg := p.BuildStrategyGraph(u)
	if len(sg.Candidates) > 18 {
		fmt.Printf("  (skip brute force: %d candidates)\n", len(sg.Candidates))
		return
	}
	best, _ := core.BruteForceMeaningful(sg.Candidates, sg.ClientDepth, sg.SourceRTT)
	if math.Abs(best-st.ExpectedDelay) > 1e-9 {
		fail(fmt.Errorf("client %d: Algorithm 1 %.6f != brute force %.6f",
			u, st.ExpectedDelay, best))
	}
	fmt.Printf("  brute force agrees: %.4f ms\n", best)
}

func maxDepth(t *mtree.Tree) int32 {
	var m int32
	for _, d := range t.Depth {
		if d > m {
			m = d
		}
	}
	return m
}

// proportionalTimeout returns the t0 = beta·rtt policy of -beta. A beta
// that is not positive and finite is an error: a NaN timeout would silently
// collapse every plan to the source, and a zero or negative beta plans with
// zero or negative timeouts.
func proportionalTimeout(beta float64) (core.TimeoutPolicy, error) {
	if !(beta > 0) || math.IsInf(beta, 1) {
		return nil, fmt.Errorf("timeout factor -beta %v is not positive and finite", beta)
	}
	return core.ProportionalTimeout(beta), nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "strategy: %v\n", err)
	os.Exit(1)
}
