package viz

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/experiment"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// parseSVG validates well-formed XML and counts element names.
func parseSVG(t *testing.T, b []byte) map[string]int {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(b))
	counts := map[string]int{}
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			counts[se.Name.Local]++
		}
	}
	return counts
}

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(100, 50)
	c.Line(0, 0, 10, 10, "red", 1)
	c.Circle(5, 5, 2, "blue")
	c.Rect(1, 1, 3, 3, "#000")
	c.Text(2, 2, 9, "#333", "middle", `label <&> "quoted"`)
	c.Polyline([][2]float64{{0, 0}, {1, 2}, {3, 4}}, "green", 1)
	c.Polyline(nil, "green", 1) // no-op
	c.Title("t&t")
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["svg"] != 1 || counts["line"] != 1 || counts["circle"] != 1 ||
		counts["text"] != 1 || counts["polyline"] != 1 || counts["title"] != 1 {
		t.Fatalf("element counts wrong: %v", counts)
	}
	if !strings.Contains(buf.String(), "&amp;") {
		t.Fatal("special characters not escaped")
	}
	if c.Elements() != 6 {
		t.Fatalf("Elements() = %d, want 6", c.Elements())
	}
}

func TestCanvasRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size canvas accepted")
		}
	}()
	NewCanvas(0, 10)
}

func TestTreeLayoutProperties(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(80), rng.New(3))
	tr := mtree.MustBuild(net)
	pos := TreeLayout(tr, 800, 600)
	if len(pos) != net.NumNodes() {
		t.Fatalf("positions for %d nodes, want %d", len(pos), net.NumNodes())
	}
	// Children sit strictly below their parents; all positions in-canvas.
	for _, v := range tr.Order {
		p := pos[v]
		if p[0] < 0 || p[0] > 800 || p[1] < 0 || p[1] > 600 {
			t.Fatalf("node %d out of canvas: %v", v, p)
		}
		if par := tr.Parent[v]; par != graph.None {
			if pos[par][1] >= p[1] {
				t.Fatalf("parent %d not above child %d", par, v)
			}
		}
	}
	// Distinct leaves occupy distinct x slots.
	seen := map[float64]bool{}
	for _, v := range tr.Order {
		if len(tr.Children[v]) == 0 {
			if seen[pos[v][0]] {
				t.Fatalf("leaf x collision at %v", pos[v][0])
			}
			seen[pos[v][0]] = true
		}
	}
}

func TestTopologySVG(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(60), rng.New(7))
	tr := mtree.MustBuild(net)
	p := core.NewPlanner(tr, route.Build(net))
	c := Topology(tr, p.PlanAllDense(), 800, 600)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["circle"] != net.NumNodes() {
		t.Fatalf("circles %d != nodes %d", counts["circle"], net.NumNodes())
	}
	// Lines: every link once, plus one overlay per client with peers.
	withPeers := 0
	for _, st := range p.PlanAllDense() {
		if len(st.Peers) > 0 {
			withPeers++
		}
	}
	if counts["line"] != net.NumLinks()+withPeers {
		t.Fatalf("lines %d != links %d + overlays %d",
			counts["line"], net.NumLinks(), withPeers)
	}
}

// topologySVGDigest pins TestTopologySVGStable's rendering.
const topologySVGDigest = "18d28af01aac7f6e"

// TestTopologySVGStable renders one network with its strategy overlay twice,
// each from a fresh planner, and requires equal bytes and a pinned digest:
// the overlay arcs follow the dense plan's client order.
func TestTopologySVGStable(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(60), rng.New(7))
	render := func() []byte {
		tr := mtree.MustBuild(net)
		c := Topology(tr, core.NewPlanner(tr, route.Build(net)).PlanAllDense(), 800, 600)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("two renderings of one network differ")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(a))[:16]; got != topologySVGDigest {
		t.Fatalf("SVG digest %s, want %s", got, topologySVGDigest)
	}
}

func TestTopologySVGWithoutStrategies(t *testing.T) {
	net, err := topology.Star(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := Topology(mtree.MustBuild(net), nil, 400, 300)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["line"] != net.NumLinks() {
		t.Fatalf("lines %d != links %d", counts["line"], net.NumLinks())
	}
}

func TestFigureSVG(t *testing.T) {
	f := &experiment.Figure{
		Name:      "Figure X",
		XLabel:    "loss",
		YLabel:    "ms",
		Metric:    "latency",
		Protocols: []string{"SRM", "RMA", "RP"},
	}
	for i := 1; i <= 6; i++ {
		f.Rows = append(f.Rows, experiment.Row{
			X: float64(i),
			Points: map[string]experiment.Point{
				"SRM": {Latency: 100 + float64(i)},
				"RMA": {Latency: 90},
				"RP":  {Latency: 40},
			},
		})
	}
	c := FigureSVG(f, 640, 400)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["polyline"] != 3 {
		t.Fatalf("polylines %d, want 3 series", counts["polyline"])
	}
	// One dot per (row, protocol): 18 circles.
	if counts["circle"] != 18 {
		t.Fatalf("circles %d, want 18", counts["circle"])
	}
	if !strings.Contains(buf.String(), "Figure X") {
		t.Fatal("figure title missing")
	}
	// Empty figure renders placeholder without crashing.
	empty := &experiment.Figure{Name: "E", Protocols: []string{"RP"}}
	c2 := FigureSVG(empty, 200, 100)
	buf.Reset()
	if _, err := c2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parseSVG(t, buf.Bytes())
}

func TestStrategyGraphSVG(t *testing.T) {
	net := topology.MustGenerate(topology.DefaultConfig(60), rng.New(9))
	tr := mtree.MustBuild(net)
	p := core.NewPlanner(tr, route.Build(net))
	// Pick a client with at least one candidate for an interesting graph.
	var sg *core.StrategyGraph
	for _, c := range net.Clients {
		g := p.BuildStrategyGraph(c)
		if len(g.Candidates) >= 2 {
			sg = g
			break
		}
	}
	if sg == nil {
		t.Skip("no client with 2+ candidates on this seed")
	}
	cv := StrategyGraphSVG(sg, 900, 320)
	var buf bytes.Buffer
	if _, err := cv.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	// One circle per DAG node.
	if counts["circle"] != len(sg.Candidates)+2 {
		t.Fatalf("circles %d, want %d", counts["circle"], len(sg.Candidates)+2)
	}
	// One polyline per arc.
	if counts["polyline"] != sg.Digraph().NumArcs() {
		t.Fatalf("polylines %d, want %d arcs", counts["polyline"], sg.Digraph().NumArcs())
	}
	if !strings.Contains(buf.String(), "optimal path highlighted") {
		t.Fatal("caption missing")
	}
}

func TestStrategyGraphSVGNoCandidates(t *testing.T) {
	net, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := mtree.MustBuild(net)
	p := core.NewPlanner(tr, route.Build(net))
	sg := p.BuildStrategyGraph(net.Clients[0])
	cv := StrategyGraphSVG(sg, 400, 200)
	var buf bytes.Buffer
	if _, err := cv.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["circle"] != 2 {
		t.Fatalf("circles %d, want 2 (u and S)", counts["circle"])
	}
}
