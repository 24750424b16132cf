package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rmcast/internal/experiment"
)

// scale sizes every workload. fullScale is what the benchmark measures;
// quickScale runs the same code at sizes a unit test can afford.
type scale struct {
	// Figures 5–8: backbone sizes at 5% loss, and loss percentages on one
	// backbone of lossRouters routers.
	sweepSizes   []int
	sweepLoss    []float64
	lossRouters  int
	sweepPackets int
	// tree-50k and tree-50k-domains.
	treeClients, treePackets, domainClients int
	// plan-1m.
	planClients int
	// svc-churn: group size and churn ops per timed script.
	svcClients, svcOps int
}

var fullScale = scale{
	sweepSizes:    experiment.PaperFigure56().Sizes,
	sweepLoss:     experiment.PaperFigure78().LossPcts,
	lossRouters:   experiment.PaperFigure78().Routers,
	sweepPackets:  experiment.PaperFigure56().Packets,
	treeClients:   50_000,
	treePackets:   20,
	domainClients: 12_500,
	planClients:   1_000_000,
	svcClients:    2000,
	svcOps:        6000,
}

var quickScale = scale{
	sweepSizes:    []int{50, 100},
	sweepLoss:     []float64{5, 10},
	lossRouters:   100,
	sweepPackets:  20,
	treeClients:   1000,
	treePackets:   10,
	domainClients: 250,
	planClients:   10_000,
	svcClients:    200,
	svcOps:        300,
}

// series is every sample one invocation took of a metric.
type series struct {
	unit string
	vals []float64
}

// run is the state of one workload invocation.
type run struct {
	w      *workload
	rep    func(task bool) error
	probe  func() error
	seed   uint64
	budget time.Duration
	// deadline is when an untraced invocation's budget runs out; it is zero
	// while tracing, which runs every piece of work once.
	deadline time.Time
	sc       scale
	full     bool // fullScale: outputs drawn from the default seed must match the pins
	workers  int
	// rec is non-nil while the traced rep and probes run.
	rec *recorder

	notes map[string]*series
	order []string

	attempted, failed int
	problems          []string
	// firstDigest holds the first digest each check key produced; every
	// later rep and twin of the invocation must reproduce it.
	firstDigest map[string]string
}

func newRun(w *workload, seed uint64, budget time.Duration, sc scale, full bool) *run {
	return &run{
		w:           w,
		seed:        seed,
		budget:      budget,
		sc:          sc,
		full:        full,
		workers:     runtime.GOMAXPROCS(0),
		notes:       map[string]*series{},
		firstDigest: map[string]string{},
	}
}

// note records one sample. Names with a dot are per-layer metrics and are
// recorded only while tracing; the others are end-to-end metrics.
func (r *run) note(name, unit string, v float64) {
	if strings.Contains(name, ".") && r.rec == nil {
		return
	}
	s, ok := r.notes[name]
	if !ok {
		s = &series{unit: unit}
		r.notes[name] = s
		r.order = append(r.order, name)
	}
	s.vals = append(s.vals, v)
}

// tally records n attempted operations and the problems one check of them
// found; any problem counts one of them failed.
func (r *run) tally(n int, problems []string) {
	r.attempted += n
	r.failed += min(len(problems), 1)
	r.problems = append(r.problems, problems...)
}

// digest compares d, an output of inputs drawn from seed, with the first
// digest key produced in this invocation and, when the inputs are the
// default seed's at full scale, with the pinned value. It returns the
// mismatches.
func (r *run) digest(key string, seed uint64, d string) []string {
	var out []string
	if first, ok := r.firstDigest[key]; !ok {
		r.firstDigest[key] = d
	} else if d != first {
		out = append(out, fmt.Sprintf("%s digest %s differs from this run's first %s", key, d, first))
	}
	if want, ok := pins[key]; ok && r.full && seed == defaultSeed && d != want {
		out = append(out, fmt.Sprintf("%s digest %s differs from pinned %s", key, d, want))
	}
	return out
}

// timed runs f inside a span and returns its wall time.
func (r *run) timed(name string, f func() error) (time.Duration, error) {
	id := r.rec.begin(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.rec.end(id)
	return d, err
}

// span is timed without the duration.
func (r *run) span(name string, f func() error) error {
	_, err := r.timed(name, f)
	return err
}

// allocsDuring runs f in a span and returns its wall time and heap
// allocation count.
func (r *run) allocsDuring(name string, f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, _ := r.timed(name, func() error { f(); return nil })
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// gc collects garbage before a rep, so one rep's garbage is not charged to
// the next.
func (r *run) gc() {
	_ = r.span("bench.gc", func() error { runtime.GC(); return nil })
}

// setup times f as the workload's set-up: seed to first timed operation.
func (r *run) setup(f func() error) error {
	d, err := r.timed("bench.setup", f)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.note("setup_s", "s", d.Seconds())
	if r.rec != nil {
		var ms runtime.MemStats
		_ = r.span("bench.memstats", func() error { runtime.ReadMemStats(&ms); return nil })
		r.note("heap.live_mb", "MB", float64(ms.HeapAlloc)/(1<<20))
	}
	return nil
}

// task runs f as the workload's timed operation, which does units() units
// of work; traced, it also counts the allocations and GC cycles f caused.
// The caller notes task_s, because a task may leave a check out of it.
func (r *run) task(units func() float64, f func() error) (time.Duration, error) {
	if r.rec == nil {
		return r.timed("bench.task", f)
	}
	// Traced, the span also covers the allocation counts, which stop the
	// world and may wait for a collection to finish.
	id := r.rec.begin("bench.task")
	defer r.rec.end(id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	runtime.ReadMemStats(&after)
	u := units()
	r.note("task.units", "count", u)
	r.note("task.allocs_per_unit", "count", float64(after.Mallocs-before.Mallocs)/u)
	r.note("task.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.note("task.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	return d, nil
}

// last returns the latest sample of a metric (NaN when there is none).
func (r *run) last(name string) float64 {
	s, ok := r.notes[name]
	if !ok || len(s.vals) == 0 {
		return math.NaN()
	}
	return s.vals[len(s.vals)-1]
}

// fits reports whether work as long as d still ends within the untraced
// invocation's budget.
func (r *run) fits(d time.Duration) bool {
	return !r.deadline.IsZero() && time.Until(r.deadline) >= d
}

// measure runs the untraced invocation: reps of set-up plus task while
// another rep as long as the last one still fits in the budget (at least
// one), then set-up-only reps until the workload's minimum set-up sample
// count is reached.
func (r *run) measure() error {
	r.deadline = time.Now().Add(r.budget)
	setups := 0
	for {
		t0 := time.Now()
		r.gc()
		if err := r.rep(true); err != nil {
			return err
		}
		setups++
		if !r.fits(time.Since(t0)) {
			break
		}
	}
	for ; setups < r.w.minSetups; setups++ {
		r.gc()
		if err := r.rep(false); err != nil {
			return err
		}
	}
	return nil
}

// measureTraced runs one untraced rep as the overhead baseline, then the
// same rep traced, then the workload's probes, and derives the per-layer
// metrics from the spans.
func (r *run) measureTraced() error {
	r.gc()
	start := time.Now()
	if err := r.rep(true); err != nil {
		return err
	}
	base := time.Since(start)

	r.rec = newRecorder(r.w.name)
	r.gc()
	start = time.Now()
	if err := r.rep(true); err != nil {
		return err
	}
	traced := time.Since(start)
	// Spans are appended as they open and the rep's are all closed, so the
	// rep's spans are a prefix that holds every child of its members.
	rep := r.rec.spans
	if r.probe != nil {
		if err := r.probe(); err != nil {
			return err
		}
	}
	wall := r.rec.now()

	spans := r.rec.spans
	names := selfBy(rep, spanName)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	layerSetup := names["topology.generate"] + names["mtree.build"] + names["route.build"]
	r.note("topology.generate_ms", "ms", ms(names["topology.generate"]))
	r.note("mtree.build_ms", "ms", ms(names["mtree.build"]))
	r.note("route.build_ms", "ms", ms(names["route.build"]))
	var setupNS int64
	for _, s := range rep {
		if s.Name == "bench.setup" {
			setupNS += s.dur()
		}
	}
	r.note("setup.construct_ms", "ms", ms(setupNS-layerSetup))
	for _, n := range []string{"protocol.session", "strategysvc.new"} {
		if ns, ok := names[n]; ok {
			r.note(n+"_ms", "ms", ms(ns))
		}
	}
	r.note("task.ns_per_unit", "ns", r.last("task_s")*1e9/r.last("task.units"))

	layers := selfBy(spans, layer)
	var program int64
	for l, ns := range layers {
		if l != "bench" {
			program += ns
		}
	}
	for _, l := range programLayers {
		r.note(l+".share", "ratio", float64(layers[l])/float64(max(program, 1)))
	}
	r.note("bench.share", "ratio", float64(layers["bench"])/float64(wall))
	r.note("trace.coverage", "ratio", coverage(spans, wall))
	r.note("trace.overhead_frac", "ratio", traced.Seconds()/base.Seconds()-1)
	r.note("trace.spans", "count", float64(len(spans)))
	return nil
}

// programLayers are the repository packages the spans attribute time to,
// in the order the benchmark reports their shares.
var programLayers = []string{"topology", "mtree", "route", "core", "protocol", "sim", "parallel", "experiment", "strategysvc"}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
