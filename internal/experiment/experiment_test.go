package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// TestNewEngineNames walks the engine table: names are unique, each builds
// an engine, and every sweep's protocol list names only table entries.
func TestNewEngineNames(t *testing.T) {
	known := map[string]bool{}
	for _, name := range Engines() {
		if known[name] {
			t.Fatalf("%s listed twice", name)
		}
		known[name] = true
		e, err := NewEngine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e == nil {
			t.Fatalf("%s: nil engine", name)
		}
	}
	lists := map[string][]string{
		"Paper": PaperProtocols, "Ablation": AblationProtocols, "Chaos": ChaosProtocols,
		"Churn": ChurnProtocols, "Adversarial": AdversarialProtocols,
	}
	for list, names := range lists {
		for _, name := range names {
			if !known[name] {
				t.Errorf("%sProtocols names %s, which is not in Engines()", list, name)
			}
		}
	}
	if _, err := NewEngine("BOGUS"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestCheck covers the failed-run rule on synthetic results.
func TestCheck(t *testing.T) {
	clean := func() *protocol.Result { return &protocol.Result{Complete: true} }
	capped := clean()
	capped.Complete = false
	lost := clean()
	lost.Stats.Unrecovered = 3
	violated := clean()
	violated.Violations = []string{"double delivery", "phantom repair"}
	for _, c := range []struct {
		name string
		res  *protocol.Result
		want string
	}{
		{"event cap", capped, "hit the event cap"},
		{"unrecovered loss", lost, "left 3 losses unrecovered"},
		{"oracle violation", violated, "violated 2 invariants: double delivery"},
	} {
		if err := Check(c.res); err == nil || err.Error() != c.want {
			t.Errorf("%s: Check = %v, want %q", c.name, err, c.want)
		}
	}
	if err := Check(clean()); err != nil {
		t.Errorf("clean run: Check = %v, want nil", err)
	}
}

func TestRunSmoke(t *testing.T) {
	for _, proto := range PaperProtocols {
		res, err := Run(RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 30, Interval: 40, TopoSeed: 1, SimSeed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Stats.Losses == 0 || res.Stats.Unrecovered != 0 {
			t.Fatalf("%s: stats %+v", proto, res.Stats)
		}
		if res.AvgLatency() <= 0 || res.BandwidthPerRecovery() <= 0 {
			t.Fatalf("%s: degenerate metrics %v %v", proto,
				res.AvgLatency(), res.BandwidthPerRecovery())
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := RunSpec{Routers: 40, Loss: 0.1, Protocol: "RP",
		Packets: 30, Interval: 40, TopoSeed: 3, SimSeed: 4}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.Hops != b.Hops {
		t.Fatal("identical specs diverged")
	}
}

func TestGroupSizeSweepSmall(t *testing.T) {
	g := GroupSizeSweep{
		Sizes:    []int{30, 60},
		Loss:     0.05,
		Packets:  25,
		Interval: 40,
		BaseSeed: 7,
	}
	lat, bw, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 2 || len(bw.Rows) != 2 {
		t.Fatalf("row counts %d/%d", len(lat.Rows), len(bw.Rows))
	}
	for _, fig := range []*Figure{lat, bw} {
		for _, row := range fig.Rows {
			if row.X <= 0 {
				t.Fatalf("row without client count: %+v", row)
			}
			for _, p := range fig.Protocols {
				if fig.Value(row.Points[p]) <= 0 {
					t.Fatalf("%s %s: zero metric", fig.Name, p)
				}
			}
		}
	}
	// Larger topologies must report more clients.
	if lat.Rows[1].X <= lat.Rows[0].X {
		t.Fatalf("client counts not increasing: %v vs %v", lat.Rows[0].X, lat.Rows[1].X)
	}
}

func TestLossSweepSmall(t *testing.T) {
	l := LossSweep{
		Routers:  40,
		LossPcts: []float64{5, 15},
		Packets:  25,
		Interval: 40,
		BaseSeed: 9,
	}
	lat, bw, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 2 || len(bw.Rows) != 2 {
		t.Fatal("row counts wrong")
	}
	if lat.Rows[0].X != 5 || lat.Rows[1].X != 15 {
		t.Fatal("x values wrong")
	}
}

func TestReplicatesMergeCleanly(t *testing.T) {
	l := LossSweep{
		Routers:    30,
		LossPcts:   []float64{10},
		Packets:    20,
		Interval:   40,
		Replicates: 3,
		BaseSeed:   11,
	}
	lat, _, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := lat.Rows[0].Points["RP"]
	if p.Losses == 0 || p.Latency <= 0 {
		t.Fatalf("merged point degenerate: %+v", p)
	}
}

func TestAblationSweep(t *testing.T) {
	a := AblationSweep{
		Routers:  30,
		LossPcts: []float64{10},
		Packets:  20,
		Interval: 40,
		BaseSeed: 13,
	}
	lat, bw, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range AblationProtocols {
		if lat.Value(lat.Rows[0].Points[proto]) <= 0 {
			t.Fatalf("%s missing from ablation", proto)
		}
	}
	_ = bw
}

func TestFigureFormatAndCSV(t *testing.T) {
	l := LossSweep{
		Routers:  30,
		LossPcts: []float64{10},
		Packets:  15,
		Interval: 40,
		BaseSeed: 15,
	}
	lat, _, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lat.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7", "SRM", "RMA", "RP", "RP vs SRM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := lat.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "per-link loss (%),") {
		t.Fatalf("CSV shape wrong:\n%s", buf.String())
	}
}

func TestPaperDefaults(t *testing.T) {
	g := PaperFigure56()
	if len(g.Sizes) != 7 || g.Sizes[0] != 50 || g.Sizes[6] != 600 || g.Loss != 0.05 {
		t.Fatalf("Figure 5/6 defaults wrong: %+v", g)
	}
	l := PaperFigure78()
	if l.Routers != 500 || len(l.LossPcts) != 10 {
		t.Fatalf("Figure 7/8 defaults wrong: %+v", l)
	}
	a := PaperAblation()
	if a.Routers != 300 {
		t.Fatalf("ablation defaults wrong: %+v", a)
	}
}

// TestHeadlineComparisonSmall is the shape check at test scale: RP must
// beat SRM and RMA on latency, and must not exceed their bandwidth, on a
// mid-size topology at the paper's 5% loss.
func TestHeadlineComparisonSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run")
	}
	g := GroupSizeSweep{
		Sizes:    []int{100},
		Loss:     0.05,
		Packets:  60,
		Interval: 50,
		BaseSeed: 17,
	}
	lat, bw, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	row := lat.Rows[0]
	rp := row.Points["RP"].Latency
	srmLat := row.Points["SRM"].Latency
	rmaLat := row.Points["RMA"].Latency
	if rp >= srmLat {
		t.Fatalf("RP latency %.2f not below SRM %.2f", rp, srmLat)
	}
	if rp >= rmaLat {
		t.Fatalf("RP latency %.2f not below RMA %.2f", rp, rmaLat)
	}
	brow := bw.Rows[0]
	if brow.Points["RP"].Bandwidth >= brow.Points["SRM"].Bandwidth {
		t.Fatalf("RP bandwidth %.2f not below SRM %.2f",
			brow.Points["RP"].Bandwidth, brow.Points["SRM"].Bandwidth)
	}
}

func TestRPImprovementHelper(t *testing.T) {
	f := &Figure{
		Metric:    "latency",
		Protocols: []string{"SRM", "RP"},
		Rows: []Row{{
			X: 1,
			Points: map[string]Point{
				"SRM": {Latency: 100},
				"RP":  {Latency: 40},
			},
		}},
	}
	if got := f.RPImprovement("SRM"); got != 0.6 {
		t.Fatalf("improvement %v, want 0.6", got)
	}
	empty := &Figure{Metric: "latency", Protocols: []string{"SRM", "RP"}}
	if empty.RPImprovement("SRM") != 0 {
		t.Fatal("empty figure should give 0")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := Run(RunSpec{Routers: 1, Loss: 0.05, Protocol: "RP", Packets: 5, Interval: 10}); err == nil {
		t.Fatal("tiny topology accepted")
	}
	if _, err := Run(RunSpec{Routers: 30, Loss: 0.05, Protocol: "NOPE", Packets: 5, Interval: 10}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestRunRejectsBadFields gives each RunSpec field that a run reads a NaN,
// infinite, zero or negative value and wants an error back: not a panic,
// and not a silent run with a default or a vacuous schedule.
func TestRunRejectsBadFields(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	chaos := func(set func(*fault.ChaosParams)) func(*RunSpec) {
		return func(s *RunSpec) {
			c := fault.ChaosParams{CrashRate: 0.1, LinkDownRate: 0.1,
				BurstSeverity: 0.2, BaseLoss: 0.05, Span: 50}
			set(&c)
			s.Chaos = &c
		}
	}
	churn := func(set func(*fault.ChurnParams)) func(*RunSpec) {
		return func(s *RunSpec) {
			c := fault.ChurnParams{Rate: 0.5, Span: 50}
			set(&c)
			s.Churn = &c
		}
	}
	mutate := func(set func(*fault.MutationConfig)) func(*RunSpec) {
		return func(s *RunSpec) {
			m := fault.MutationConfig{Request: fault.MutationParams{DupProb: 0.2, MaxDelay: 5}}
			set(&m)
			s.Mutation = &m
		}
	}
	for _, row := range []struct {
		name string
		set  func(*RunSpec)
	}{
		{"Packets=-3", func(s *RunSpec) { s.Packets = -3 }},
		{"Packets=0", func(s *RunSpec) { s.Packets = 0 }},
		{"Interval=NaN", func(s *RunSpec) { s.Interval = nan }},
		{"Interval=-1", func(s *RunSpec) { s.Interval = -1 }},
		{"Interval=0", func(s *RunSpec) { s.Interval = 0 }},
		{"RouteNoise=NaN", func(s *RunSpec) { s.LinkState, s.RouteNoise = true, nan }},
		{"RouteNoise=-1", func(s *RunSpec) { s.LinkState, s.RouteNoise = true, -1 }},
		{"RouteNoise=+Inf", func(s *RunSpec) { s.LinkState, s.RouteNoise = true, inf }},
		{"Chaos.CrashRate=NaN", chaos(func(c *fault.ChaosParams) { c.CrashRate = nan })},
		{"Chaos.LinkDownRate=NaN", chaos(func(c *fault.ChaosParams) { c.LinkDownRate = nan })},
		{"Chaos.BurstSeverity=+Inf", chaos(func(c *fault.ChaosParams) { c.BurstSeverity = inf })},
		{"Chaos.BaseLoss=NaN", chaos(func(c *fault.ChaosParams) { c.BaseLoss = nan })},
		{"Chaos.BaseLoss=2", chaos(func(c *fault.ChaosParams) { c.BaseLoss = 2 })},
		{"Chaos.Span=-Inf", chaos(func(c *fault.ChaosParams) { c.Span = -inf })},
		{"Churn.Rate=NaN", churn(func(c *fault.ChurnParams) { c.Rate = nan })},
		{"Churn.Span=-Inf", churn(func(c *fault.ChurnParams) { c.Span = -inf })},
		{"Chaos.CrashRate=-2", chaos(func(c *fault.ChaosParams) { c.CrashRate = -2 })},
		{"Chaos.BurstSeverity=7", chaos(func(c *fault.ChaosParams) { c.BurstSeverity = 7 })},
		{"Churn.Rate=5", churn(func(c *fault.ChurnParams) { c.Rate = 5 })},
		{"Churn.Span=-3", churn(func(c *fault.ChurnParams) { c.Span = -3 })},
		{"Mutation.Request.DupProb=NaN", mutate(func(m *fault.MutationConfig) { m.Request.DupProb = nan })},
		{"Mutation.Request.ReorderProb=+Inf", mutate(func(m *fault.MutationConfig) { m.Request.ReorderProb = inf })},
		{"Mutation.Request.MaxDelay=NaN", mutate(func(m *fault.MutationConfig) { m.Request.MaxDelay = nan })},
		{"Mutation.Request.CorruptProb=-Inf", mutate(func(m *fault.MutationConfig) { m.Request.CorruptProb = -inf })},
		{"Mutation.Repair.DupProb=+Inf", mutate(func(m *fault.MutationConfig) { m.Repair.DupProb = inf })},
		{"Mutation.Repair.ReorderProb=NaN", mutate(func(m *fault.MutationConfig) { m.Repair.ReorderProb = nan })},
		{"Mutation.Repair.MaxDelay=+Inf", mutate(func(m *fault.MutationConfig) { m.Repair.MaxDelay = inf })},
		{"Mutation.Repair.CorruptProb=NaN", mutate(func(m *fault.MutationConfig) { m.Repair.CorruptProb = nan })},
		{"Mutation.Symbol.DupProb=-Inf", mutate(func(m *fault.MutationConfig) { m.Symbol.DupProb = -inf })},
		{"Mutation.Symbol.ReorderProb=NaN", mutate(func(m *fault.MutationConfig) { m.Symbol.ReorderProb = nan })},
		{"Mutation.Symbol.MaxDelay=-Inf", mutate(func(m *fault.MutationConfig) { m.Symbol.MaxDelay = -inf })},
		{"Mutation.Symbol.CorruptProb=NaN", mutate(func(m *fault.MutationConfig) { m.Symbol.CorruptProb = nan })},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := RunSpec{Routers: 40, Loss: 0.05, Protocol: "RP", Packets: 5, Interval: 10,
				TopoSeed: 1, SimSeed: 2, FaultSeed: 3}
			row.set(&spec)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, err := Run(spec); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestRunWithLinkStateAndTreeKind(t *testing.T) {
	res, err := Run(RunSpec{
		Routers: 40, Loss: 0.05, Protocol: "RP",
		Packets: 20, Interval: 40, TopoSeed: 3, SimSeed: 4,
		LinkState: true, RouteNoise: 0.2, Tree: topology.ShortestPathTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unrecovered != 0 || !res.Complete {
		t.Fatalf("LSR+SPT run failed: %+v", res.Stats)
	}
}

func TestChartRendering(t *testing.T) {
	f := &Figure{
		Name:      "test figure",
		XLabel:    "x",
		YLabel:    "ms",
		Metric:    "latency",
		Protocols: []string{"SRM", "RMA", "RP"},
	}
	for i := 1; i <= 5; i++ {
		f.Rows = append(f.Rows, Row{
			X: float64(i),
			Points: map[string]Point{
				"SRM": {Latency: 100 + float64(i)},
				"RMA": {Latency: 80},
				"RP":  {Latency: 30 - float64(i)},
			},
		})
	}
	var buf bytes.Buffer
	if err := f.Chart(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"test figure", "S=SRM", "R=RP", "ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Highest-latency protocol's glyph must appear above the lowest's.
	lines := strings.Split(out, "\n")
	firstS, firstR := -1, -1
	for i, l := range lines {
		if firstS < 0 && strings.Contains(l, "S") && strings.Contains(l, "|") {
			firstS = i
		}
		if firstR < 0 && strings.ContainsRune(l, 'R') && strings.Contains(l, "|") {
			firstR = i
		}
	}
	if firstS < 0 || firstR < 0 || firstS >= firstR {
		t.Fatalf("glyph ordering wrong (S at %d, R at %d):\n%s", firstS, firstR, out)
	}
	// Degenerate figures don't crash.
	empty := &Figure{Name: "empty", Protocols: []string{"RP"}}
	if err := empty.Chart(&buf, 5, 2); err != nil {
		t.Fatal(err)
	}
	one := &Figure{Name: "one", Metric: "latency", Protocols: []string{"RP"},
		Rows: []Row{{X: 3, Points: map[string]Point{"RP": {Latency: 5}}}}}
	if err := one.Chart(&buf, 20, 8); err != nil {
		t.Fatal(err)
	}
}

func TestMarkdownAndCI(t *testing.T) {
	l := LossSweep{
		Routers:    30,
		LossPcts:   []float64{10},
		Packets:    15,
		Interval:   40,
		Replicates: 3,
		BaseSeed:   77,
	}
	lat, _, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lat.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| per-link loss (%) |") || !strings.Contains(out, "|---|") {
		t.Fatalf("markdown table malformed:\n%s", out)
	}
	// Three replicates ⇒ confidence intervals present.
	if !strings.Contains(out, "±") {
		t.Fatalf("no CI with 3 replicates:\n%s", out)
	}
	// Single replicate ⇒ no CI.
	l.Replicates = 1
	lat1, _, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := lat1.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "±") {
		t.Fatal("CI printed with one replicate")
	}
}
