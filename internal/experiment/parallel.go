// Deterministic parallel execution for the sweep harness.
//
// A sweep is a grid of independent simulation cells: every cell carries its
// own (TopoSeed, SimSeed) pair, and inside a cell the session derives its
// traffic and protocol streams from that seed via rng.Split. Cells that
// name one network share its topology, tree and router read-only, and no
// other state flows between cells, so the grid can be executed by any
// number of workers in any order and still produce bit-identical figures —
// determinism lives in the seeds, not in the schedule. Each exploits that:
// it fans indices out to a bounded worker pool, the grid gathers results
// into a slice indexed by cell position, and aggregation always proceeds in
// the same deterministic order the serial loop used.
//
// workers <= 1 bypasses the pool entirely and runs the serial loop
// (including its stop-at-first-error behaviour), which keeps `-parallel 1`
// a faithful reference for the byte-identical-output tests.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rmcast/internal/protocol"
)

// DefaultParallelism returns the worker count the cmd tools default to:
// one worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// Each calls f(i) for every i in [0, n) on up to workers goroutines and
// returns the lowest failing index with its error, or -1 and nil, so the
// reported failure does not depend on scheduling. With workers <= 1 the
// calls run in order and stop at the first failure.
func Each(n, workers int, f func(i int) error) (int, error) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// grid is one sweep's row × protocol × replicate layout and, once run, its
// measured rows. spec returns the cell at (row, replicate); run sets its
// Protocol, so every protocol of a row faces the same seeds.
type grid struct {
	xlabel     string
	protocols  []string
	rows       []Row // X and Label set by the sweep; run fills Points
	replicates int
	spec       func(row, rep int) RunSpec
}

// newGrid lays out one row per x value, labelled by format (e.g. "p=%g%%"),
// comparing protocols (defaults when nil) over replicates seeds per cell.
func newGrid(xlabel string, protocols, defaults []string, xs []float64, format string,
	replicates int, spec func(row, rep int) RunSpec) *grid {
	if protocols == nil {
		protocols = defaults
	}
	rows := make([]Row, len(xs))
	for i, x := range xs {
		rows[i] = Row{X: x, Label: fmt.Sprintf(format, x)}
	}
	return &grid{xlabel: xlabel, protocols: protocols, rows: rows, replicates: replicates, spec: spec}
}

// run executes every cell on parallel workers and folds each (row,
// protocol)'s replicates with Point.merge. A zero replicate count means
// one; a negative count is an error. A failing cell is named by its row
// label, protocol and replicate.
//
// Cells that share a network (netKey) share one build: the first of them to
// run builds it, inside the pool, and the last to finish drops it, so the
// pass holds no more networks than it is running. Nothing outlives the
// pass, so a repeated pass pays for its own builds.
func (g *grid) run(parallel int) error {
	if g.replicates < 0 {
		return fmt.Errorf("experiment: bad sweep: Replicates = %d", g.replicates)
	}
	reps := max(g.replicates, 1)
	per := len(g.protocols) * reps
	specs := make([]RunSpec, len(g.rows)*per)
	nets := make([]*sharedNet, len(specs))
	byKey := map[netKey]*sharedNet{}
	for i := range specs {
		specs[i] = g.spec(i/per, i%reps)
		specs[i].Protocol = g.protocols[i%per/reps]
		k := specs[i].netKey()
		if byKey[k] == nil {
			byKey[k] = &sharedNet{}
		}
		nets[i] = byKey[k]
		nets[i].cells.Add(1)
	}
	results := make([]*protocol.Result, len(specs))
	failed, err := Each(len(specs), parallel, func(i int) (err error) {
		defer nets[i].done()
		results[i], err = runCell(specs[i], nets[i].get)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s %s rep %d: %w",
			g.rows[failed/per].Label, g.protocols[failed%per/reps], failed%reps, err)
	}
	for r := range g.rows {
		g.rows[r].Points = make(map[string]Point, len(g.protocols))
		for pi, proto := range g.protocols {
			cells := results[r*per+pi*reps:][:reps]
			agg := cellPoint(cells[0])
			for _, res := range cells[1:] {
				agg.merge(cellPoint(res))
			}
			g.rows[r].Points[proto] = agg
		}
	}
	return nil
}

// sharedNet is one network of a grid and the count of its cells still to
// finish. The first get builds it; the last done drops it.
type sharedNet struct {
	once  sync.Once
	net   *network
	err   error
	cells atomic.Int32
}

func (s *sharedNet) get(k netKey) (*network, error) {
	s.once.Do(func() { s.net, s.err = buildNetwork(k) })
	return s.net, s.err
}

func (s *sharedNet) done() {
	if s.cells.Add(-1) == 0 {
		s.net = nil
	}
}

// figure returns one metric's view of the grid's rows.
func (g *grid) figure(name, ylabel, metric string) *Figure {
	return &Figure{
		Name:      name,
		XLabel:    g.xlabel,
		YLabel:    ylabel,
		Metric:    metric,
		Protocols: g.protocols,
		Rows:      g.rows,
	}
}

// cellPoint converts one run result into a figure point.
func cellPoint(res *protocol.Result) Point {
	return Point{
		Latency:    res.AvgLatency(),
		Bandwidth:  res.BandwidthPerRecovery(),
		Delivery:   res.DeliveryRatio(),
		P99:        res.LatencyQuantile(0.99),
		Failovers:  float64(res.Stats.Failovers),
		Losses:     res.Stats.Losses,
		Clients:    res.Clients,
		LatSamples: []float64{res.AvgLatency()},
		BwSamples:  []float64{res.BandwidthPerRecovery()},
		DelSamples: []float64{res.DeliveryRatio()},
		P99Samples: []float64{res.LatencyQuantile(0.99)},
		FoSamples:  []float64{float64(res.Stats.Failovers)},
	}
}
