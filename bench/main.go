// Command bench is rmcast's benchmark. It drives the repository's layers
// (topology, mtree, route, core, protocol with sim and the parallel runner,
// check, the experiment sweep pool and strategysvc) from outside, through
// their public functions, on five workloads; times them end to end; checks
// their outputs against pinned digests and against each other; and, traced,
// splits the time into layers.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload tree-50k --seed 7 --seconds 24 --trace 0
//	bash bench/run.sh --workload plan-1m --trace 1 --spans spans.json
//	bash bench/run.sh --stability
//
// One invocation runs one workload. Standard output is JSON lines: a host
// line, one line per metric (median, quartiles and sample count), and last
// a result line with every end-to-end metric (--trace 0) or every
// per-layer metric (--trace 1). The command exits nonzero when any output
// fails its check. bench/README.md has the workloads, the metric glossary
// and the measured baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the pins hold for: the paper sweep's base seed.
const defaultSeed = 2003

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md say why each is there.
type workload struct {
	name string
	// minSetups is the fewest set-ups an invocation times; cheap set-ups
	// take more samples so their median settles.
	minSetups int
	// bind returns the invocation's rep, which sets the workload up from the
	// seed and, when task is true, runs and checks one timed task, and its
	// probe (nil for none), which runs after the traced rep to measure what
	// the rep cannot see from outside.
	bind func(r *run) (rep func(task bool) error, probe func() error)
}

var workloads = []*workload{
	{"paper-fig5-8", 9, paperSweep},
	{"tree-50k", 9, treeRun(false)},
	{"tree-50k-domains", 9, treeRun(true)},
	{"plan-1m", 3, planMillion},
	{"svc-churn", 31, svcChurn},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is a metric the result line carries, as BENCHMARK.json
// declares it.
type metricDef struct {
	name, unit, better string
	// bypass marks a count or ratio that is 0 on a workload that does not
	// reach its layer; a metric without it must be measured on every
	// workload.
	bypass bool
}

// endToEnd are the result line's metrics untraced. BENCHMARK.json's format
// has one end-to-end list for all workloads, so each is one every workload
// has; README.md maps each workload's own metrics (sweep_s, run_s, plan_s,
// replan_s, churn_ops_per_s, get_qps) onto task_s and rate_per_s.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "task_s", unit: "s", better: "lower"},
	{name: "rate_per_s", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the result line's metrics traced.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "topology.generate_ms", unit: "ms", better: "lower"},
		{name: "mtree.build_ms", unit: "ms", better: "lower"},
		{name: "route.build_ms", unit: "ms", better: "lower"},
		{name: "setup.construct_ms", unit: "ms", better: "lower"},
		{name: "heap.live_mb", unit: "MB", better: "lower"},
		{name: "task.ns_per_unit", unit: "ns", better: "lower"},
		{name: "task.allocs_per_unit", unit: "count", better: "lower"},
		{name: "task.alloc_mb", unit: "MB", better: "lower"},
		{name: "task.gc_cycles", unit: "count", better: "lower", bypass: true},
	}
	for _, l := range programLayers {
		defs = append(defs, metricDef{name: l + ".share", unit: "ratio", better: "lower", bypass: true})
	}
	return append(defs,
		metricDef{name: "bench.share", unit: "ratio", better: "lower"},
		metricDef{name: "check.share", unit: "ratio", better: "lower", bypass: true},
		metricDef{name: "sim.events", unit: "count", better: "lower", bypass: true},
		metricDef{name: "core.fast_path", unit: "count", better: "higher", bypass: true},
		metricDef{name: "parallel.sharded", unit: "count", better: "higher", bypass: true},
		metricDef{name: "trace.coverage", unit: "ratio", better: "higher"},
		metricDef{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	)
}()

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricLine is one metric's summary over an invocation's samples.
type metricLine struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	P25      float64 `json:"p25"`
	P75      float64 `json:"p75"`
	N        int     `json:"n"`
}

// invocation runs one workload and returns its metric lines and result.
// Problems found in the outputs are in r.problems; err is a failure that
// stopped the run.
func invocation(w *workload, seed uint64, budget time.Duration, sc scale, full, traced bool) (*run, []metricLine, result, error) {
	r := newRun(w, seed, budget, sc, full)
	rep, probe := w.bind(r)
	r.rep, r.probe = rep, probe
	var err error
	if traced {
		err = r.measureTraced()
	} else {
		err = r.measure()
		r.note("peak_rss_mb", "MB", peakRSSMB())
	}
	if err != nil {
		r.failed++
		r.attempted = max(r.attempted, r.failed)
		r.problems = append(r.problems, err.Error())
	}
	r.note("failed_frac", "ratio", float64(r.failed)/float64(max(r.attempted, 1)))

	var lines []metricLine
	for _, name := range r.order {
		if strings.Contains(name, ".") != traced && name != "failed_frac" {
			continue
		}
		s := r.notes[name]
		for i, v := range s.vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.problems = append(r.problems, fmt.Sprintf("metric %s is not finite", name))
				s.vals[i] = 0
			}
		}
		q1, med, q3 := quartiles(s.vals)
		lines = append(lines, metricLine{w.name, name, s.unit, med, q1, q3, len(s.vals)})
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		s, ok := r.notes[d.name]
		switch {
		case ok:
			res.Metrics[d.name] = value{median(s.vals), d.unit}
		case d.bypass:
			res.Metrics[d.name] = value{0, d.unit}
		default:
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 && err == nil {
		r.problems = append(r.problems, "metrics not measured: "+strings.Join(missing, ", "))
	}
	res.Correct = r.failed == 0 && len(r.problems) == 0
	return r, lines, res, err
}

// gitRev reads the checkout's commit from .git without running git, which
// would search directories above the checkout.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

func writeJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value written is a plain struct or map of numbers
	}
	fmt.Fprintf(w, "%s\n", b)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
		seconds   = flag.Float64("seconds", 24, "how long to keep repeating the timed task (it runs at least once)")
		traceMode = flag.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
		spansOut  = flag.String("spans", "", "with --trace 1: write the recorded spans to this file as JSON")
		stability = flag.Bool("stability", false, "run every workload on the same ten seeds twice, for BENCHMARK.json's run_seconds, and compare the two sets against its bounds")
	)
	flag.Parse()
	if *stability {
		os.Exit(stabilityMain("BENCHMARK.json"))
	}
	w := lookup(*name)
	if w == nil || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (%s), --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	traced := *traceMode == 1
	writeJSON(os.Stdout, map[string]any{"host": map[string]any{
		"workload": w.name, "seed": *seed, "trace": *traceMode, "seconds": *seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH, "rev": gitRev(),
	}})
	budget := time.Duration(*seconds * float64(time.Second))
	r, lines, res, err := invocation(w, *seed, budget, fullScale, true, traced)
	for _, l := range lines {
		writeJSON(os.Stdout, l)
	}
	writeJSON(os.Stdout, map[string]any{"digests": r.firstDigest})
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	if traced && r.rec != nil {
		printSelfTimes(os.Stderr, r.rec.spans)
		if *spansOut != "" {
			if err := writeSpans(*spansOut, r.rec.spans); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				res.Correct = false
			}
		}
	}
	writeJSON(os.Stdout, res)
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printSelfTimes writes a table of self time per span name, largest first.
func printSelfTimes(out io.Writer, spans []span) {
	self := selfBy(spans, spanName)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(out, "self time by span:")
	for _, n := range names {
		fmt.Fprintf(out, "  %-22s %10.1f ms\n", n, float64(self[n])/1e6)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
