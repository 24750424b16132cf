package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"rmcast/internal/graph"
)

func TestSelfTimesNestedAndBackToBack(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.task", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "topology.generate", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 1, Name: "graph.walk", StartNS: 15, EndNS: 20},
		{ID: 3, Parent: 0, Name: "mtree.build", StartNS: 30, EndNS: 50}, // back to back with 1
		{ID: 4, Parent: 0, Name: "route.build", StartNS: 45, EndNS: 60}, // overlaps 3
	}
	want := []int64{100 - 50, 20 - 5, 5, 20, 15}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	layers := selfBy(spans, layer)
	if layers["bench"] != 50 || layers["topology"] != 15 || layers["graph"] != 5 {
		t.Errorf("layer self times %v", layers)
	}
	if c := coverage(spans, 200); c != 0.5 {
		t.Errorf("coverage = %v, want 0.5", c)
	}
}

func TestRecorderNests(t *testing.T) {
	rec := newRecorder("w")
	a := rec.begin("bench.setup")
	b := rec.begin("topology.generate")
	rec.end(b)
	c := rec.begin("mtree.build")
	rec.end(c)
	rec.end(a)
	d := rec.begin("bench.task")
	rec.end(d)
	parents := []int{-1, a, a, -1}
	for i, s := range rec.spans {
		if s.Parent != parents[i] || s.Workload != "w" || s.EndNS < s.StartNS {
			t.Errorf("span %d = %+v, want parent %d", i, s, parents[i])
		}
	}
	var nilRec *recorder
	if id := nilRec.begin("x"); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(-1)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || med != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v %v %v", q1, med, q3)
	}
}

func TestChurnScriptStaysValid(t *testing.T) {
	clients := make([]graph.NodeID, 100)
	for i := range clients {
		clients[i] = graph.NodeID(i + 1)
	}
	script := churnScript(clients, 5000, 9)
	active := map[graph.NodeID]bool{}
	for _, c := range clients {
		active[c] = true
	}
	n := len(clients)
	for i, o := range script {
		if active[o.node] == o.join {
			t.Fatalf("op %d (%+v) is invalid", i, o)
		}
		active[o.node] = o.join
		if o.join {
			n++
		} else {
			n--
		}
		if n < 50 || n > 100 {
			t.Fatalf("membership wandered to %d after op %d", n, i)
		}
	}
	if len(members(clients, script)) != n {
		t.Errorf("members() disagrees with the replayed script")
	}
	again := churnScript(clients, 5000, 9)
	for i := range script {
		if script[i] != again[i] {
			t.Fatalf("same seed, different op %d", i)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// readBenchmark loads the repository's BENCHMARK.json.
func readBenchmark(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestBenchmarkJSONWithinLimits(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(b))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		switch k {
		case "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer":
		default:
			t.Errorf("unexpected key %q", k)
		}
	}
	sp := readBenchmark(t)
	if len(sp.Command) == 0 || len(sp.Command) > 32 || len(sp.Paths) < 1 || len(sp.Paths) > 16 {
		t.Errorf("command %v, paths %v", sp.Command, sp.Paths)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the command", n, len(workloads))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: bad why", w.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the command", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better) {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the command", i, m, endToEnd[i])
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower better")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the command", n, len(perLayer))
	}
	for i, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better) {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the command", i, m, perLayer[i])
		}
	}
}

// TestQuickWorkloads runs every workload at quickScale, untraced and
// traced, and checks the result lines against BENCHMARK.json.
func TestQuickWorkloads(t *testing.T) {
	sp := readBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				r, lines, res, err := invocation(w, 11, time.Millisecond, quickScale, false, traced)
				if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: err %v, result %+v, problems %v", traced, err, res, r.problems)
				}
				for _, l := range lines {
					if !nameRE.MatchString(l.Name) || l.Unit == "" || l.N < 1 {
						t.Errorf("metric line %+v", l)
					}
					if l.Name == "failed_frac" && l.Median != 0 {
						t.Errorf("failed_frac = %v", l.Median)
					}
				}
				want := map[string]string{}
				if traced {
					for _, m := range sp.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range sp.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if v, ok := res.Metrics[name]; !ok || v.Unit != unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, name, v, unit)
					}
				}
				if !traced {
					for _, m := range sp.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v", m.Name, res.Metrics[m.Name].Value)
						}
					}
					continue
				}
				var end int64
				for _, s := range r.rec.spans {
					if s.Parent >= 0 {
						continue
					}
					if s.StartNS < end {
						t.Errorf("top-level span %s starts before the previous one ends", s.Name)
					}
					end = s.EndNS
				}
				if c := res.Metrics["trace.coverage"].Value; c < 0.95 {
					t.Errorf("trace.coverage = %v", c)
				}
			}
		})
	}
}
