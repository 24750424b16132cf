// Command topogen generates and exports simulation topologies for
// inspection: Graphviz DOT (multicast tree highlighted) or JSON (full
// attribute dump usable by external tooling).
//
// Usage:
//
//	topogen -routers 50 -seed 7 -format dot | dot -Tsvg > topo.svg
//	topogen -routers 200 -tree spt -format json > topo.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
	"rmcast/internal/viz"
)

func main() {
	var (
		routers = flag.Int("routers", 50, "backbone router count")
		seed    = flag.Uint64("seed", 1, "generation seed")
		loss    = flag.Float64("loss", 0.05, "per-link loss probability")
		model   = flag.String("model", "random", "backbone model: random|waxman")
		tree    = flag.String("tree", "random", "multicast tree: random|spt")
		format  = flag.String("format", "dot", "output: dot|json|svg")
		overlay = flag.Bool("strategies", false, "svg only: overlay each client's first-choice recovery peer")
	)
	flag.Parse()

	cfg := topology.DefaultConfig(*routers)
	cfg.LossProb = *loss
	switch *model {
	case "random":
	case "waxman":
		cfg.Model = topology.Waxman
	default:
		fail(fmt.Errorf("unknown model %q", *model))
	}
	switch *tree {
	case "random":
	case "spt":
		cfg.Tree = topology.ShortestPathTree
	default:
		fail(fmt.Errorf("unknown tree kind %q", *tree))
	}
	net, err := topology.Generate(cfg, rng.New(*seed))
	if err != nil {
		fail(err)
	}

	switch *format {
	case "dot":
		err = writeDOT(net)
	case "json":
		err = writeJSON(net)
	case "svg":
		err = writeSVG(net, *overlay)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fail(err)
	}
}

func writeDOT(net *topology.Network) error {
	inTree := make(map[graph.EdgeID]bool, len(net.TreeEdges))
	for _, id := range net.TreeEdges {
		inTree[id] = true
	}
	w := os.Stdout
	fmt.Fprintln(w, "graph rmcast {")
	fmt.Fprintln(w, "  layout=neato; overlap=false; splines=true;")
	for v := 0; v < net.NumNodes(); v++ {
		var attrs string
		switch net.Kind[v] {
		case topology.Source:
			attrs = `shape=doublecircle,style=filled,fillcolor="#d62728",label="S"`
		case topology.Client:
			attrs = `shape=circle,style=filled,fillcolor="#1f77b4",label="C"`
		case topology.Ghost:
			attrs = `shape=point,label=""`
		default:
			attrs = `shape=circle,label="",width=0.12`
		}
		fmt.Fprintf(w, "  n%d [%s];\n", v, attrs)
	}
	for id, e := range net.G.Edges() {
		style := `color="#cccccc"`
		if inTree[graph.EdgeID(id)] {
			style = `color="#2ca02c",penwidth=2`
		}
		fmt.Fprintf(w, "  n%d -- n%d [%s,label=\"%.1f\",fontsize=7];\n",
			e.A, e.B, style, net.Delay[id])
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// jsonTopo is the stable export schema.
type jsonTopo struct {
	Routers int        `json:"routers"`
	Source  int32      `json:"source"`
	Clients []int32    `json:"clients"`
	Nodes   []string   `json:"nodes"`
	Links   []jsonLink `json:"links"`
	Tree    []int32    `json:"treeLinks"`
}

type jsonLink struct {
	A       int32   `json:"a"`
	B       int32   `json:"b"`
	DelayMs float64 `json:"delayMs"`
	Loss    float64 `json:"loss"`
}

func writeJSON(net *topology.Network) error {
	out := jsonTopo{Source: int32(net.Source)}
	for v := 0; v < net.NumNodes(); v++ {
		out.Nodes = append(out.Nodes, net.Kind[v].String())
		if net.Kind[v] == topology.Router {
			out.Routers++
		}
	}
	for _, c := range net.Clients {
		out.Clients = append(out.Clients, int32(c))
	}
	for id, e := range net.G.Edges() {
		out.Links = append(out.Links, jsonLink{
			A: int32(e.A), B: int32(e.B),
			DelayMs: net.Delay[id], Loss: net.Loss[id],
		})
	}
	for _, id := range net.TreeEdges {
		out.Tree = append(out.Tree, int32(id))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func writeSVG(net *topology.Network, overlay bool) error {
	tree, err := mtree.Build(net)
	if err != nil {
		return err
	}
	var strategies []*core.Strategy
	if overlay {
		strategies = core.NewPlanner(tree, route.Build(net)).PlanAllDense()
	}
	_, err = viz.Topology(tree, strategies, 1000, 700).WriteTo(os.Stdout)
	return err
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
	os.Exit(1)
}
