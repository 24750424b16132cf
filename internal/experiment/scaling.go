package experiment

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"text/tabwriter"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// ScalingSweep is the large-n planning tier: RP strategy planning only (no
// packet simulation) on tree-only topologies at client counts far beyond
// the paper's figures, reporting wall-clock and allocation counts for the
// tree-aggregated batch planner, plus the O(N²) scan baseline and a
// correctness cross-check where the baseline is affordable. This probes the
// ROADMAP's "millions of users" direction: planning is the only whole-group
// computation RP needs, so its scaling is the deployment bottleneck.
type ScalingSweep struct {
	// Sizes are the client counts n. Each cell's topology is
	// topology.DefaultTreeConfig(n); a cell of at most 5000 clients
	// (scanCutoff) also runs the quadratic scan baseline and compares the
	// two result sets.
	Sizes []int
	// BaseSeed derives each cell's topology seed.
	BaseSeed uint64
	// SimWorkers, when >= 2, adds a simulation phase to every cell: one
	// serial RP packet run and one sharded run at this worker count on the
	// same topology, wall-clocked separately, with the two result digests
	// required to match exactly (the sweep errors on divergence — this is
	// the determinism gate the CI smoke tier rides). 0 skips the phase; a
	// negative count is an error.
	SimWorkers int
	// DomainClients sizes the recovery domains of the sharded half of the
	// simulation phase (protocol.Config.DomainClients; 0 means 2 to 8
	// domains, and a negative size is an error). Small domains are the
	// million-client execution mode; the digest-equality gate applies
	// unchanged.
	DomainClients int
}

const (
	// scanCutoff is the largest cell that also runs the O(N²) scan.
	scanCutoff = 5000
	// simPackets sizes the simulation phase.
	simPackets = 20
)

// DefaultScaling returns the standard tier: n ∈ {1k, 5k, 20k, 50k}.
func DefaultScaling() ScalingSweep {
	return ScalingSweep{
		Sizes:    []int{1000, 5000, 20000, 50000},
		BaseSeed: 1,
	}
}

// ScalingCell is one measured size.
type ScalingCell struct {
	// Clients is n; Nodes the total node count; TreeDepth the tree height.
	Clients   int
	Nodes     int
	TreeDepth int32
	// BuildMs is topology generation + tree construction + router setup.
	BuildMs float64
	// PlanMs is the first full PlanAllDense on the aggregated path
	// (includes building the aggregate); ReplanMs is a steady-state
	// PlanAllDenseInto over the same result slice, the cost a live session
	// pays per replan.
	PlanMs   float64
	ReplanMs float64
	// PlanWorkers is the worker count both passes planned with
	// (core.Planner.PlanWorkers): 1 below the planner's fan-out cutoff,
	// else up to GOMAXPROCS. Plan and replan times hold for this many
	// cores and no more.
	PlanWorkers int
	// PlanAllocs/ReplanAllocs are heap allocation counts for those passes.
	PlanAllocs   uint64
	ReplanAllocs uint64
	// ScanMs is the O(N²) scan baseline (0 when skipped as too large);
	// Speedup is ScanMs/PlanMs.
	ScanMs  float64
	Speedup float64
	// Verified reports that the scan baseline ran and produced strategies
	// identical to the fast path's.
	Verified bool
	// FastPath confirms the aggregated path was engaged.
	FastPath bool
	// MeanPeers is the mean prioritized-list length across clients.
	MeanPeers float64
	// SimSerialMs/SimParallelMs wall-clock the simulation phase (0 when the
	// phase is off): one RP packet run serial, one sharded at
	// ScalingSweep.SimWorkers. SimSpeedup is their ratio. On a single-core
	// host the sharded run measures coordination overhead, not speedup —
	// the digest equality is the load-bearing result either way.
	SimSerialMs   float64
	SimParallelMs float64
	SimSpeedup    float64
	// SimSharded reports that the parallel run was genuinely eligible for
	// sharding (false means it fell back to serial, making the comparison
	// vacuous). SimSerialReason carries the engine's explanation when it
	// fell back.
	SimSharded      bool
	SimSerialReason string
	// SimDomains is the recovery-domain count of the sharded run (0 outside
	// domain mode).
	SimDomains int
	// SimDigest is the shared digest of the two runs (they are required to
	// be identical).
	SimDigest string
	// PeakHeapMB is the largest live heap observed at the cell's phase
	// boundaries (runtime.ReadMemStats HeapAlloc) — the number that decides
	// whether a tier fits a deployment host. Sampled, not continuous: true
	// transient peaks between samples can exceed it.
	PeakHeapMB float64
}

// ScalingReport is the sweep result: Format renders it as a table, and
// its fields encode as JSON.
type ScalingReport []ScalingCell

// Run executes the sweep. Cells run serially on purpose: wall-clock is the
// measurement, so cells must not contend for cores.
func (s ScalingSweep) Run() (ScalingReport, error) {
	switch {
	case s.SimWorkers < 0:
		return nil, fmt.Errorf("experiment: bad scaling sweep: SimWorkers = %d", s.SimWorkers)
	case s.DomainClients < 0:
		return nil, fmt.Errorf("experiment: bad scaling sweep: DomainClients = %d", s.DomainClients)
	}
	report := make(ScalingReport, 0, len(s.Sizes))
	for i, n := range s.Sizes {
		cell, err := s.runCell(n, s.BaseSeed+uint64(i)*1000, n <= scanCutoff)
		if err != nil {
			return nil, fmt.Errorf("scaling n=%d: %w", n, err)
		}
		report = append(report, cell)
	}
	return report, nil
}

// allocsDuring runs f and returns its duration and heap allocation count.
func allocsDuring(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

// heapPeak tracks the largest live heap seen across its Sample calls.
type heapPeak struct{ maxBytes uint64 }

func (h *heapPeak) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.maxBytes {
		h.maxBytes = ms.HeapAlloc
	}
}

func (h *heapPeak) MB() float64 { return float64(h.maxBytes) / (1024 * 1024) }

func (s ScalingSweep) runCell(n int, seed uint64, withScan bool) (ScalingCell, error) {
	var peak heapPeak
	buildStart := time.Now()
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(seed))
	if err != nil {
		return ScalingCell{}, err
	}
	tree, err := mtree.Build(net)
	if err != nil {
		return ScalingCell{}, err
	}
	rt := route.NewTreeTables(tree)
	cell := ScalingCell{
		Clients: n,
		Nodes:   net.NumNodes(),
		BuildMs: float64(time.Since(buildStart)) / float64(time.Millisecond),
	}
	peak.Sample()
	for _, d := range tree.Depth {
		if d > cell.TreeDepth {
			cell.TreeDepth = d
		}
	}

	p := core.NewPlanner(tree, rt)
	cell.PlanWorkers = p.PlanWorkers()
	var dense []*core.Strategy
	planTime, planAllocs := allocsDuring(func() {
		dense = p.PlanAllDense()
	})
	cell.PlanMs = float64(planTime) / float64(time.Millisecond)
	cell.PlanAllocs = planAllocs
	cell.FastPath = p.UsesFastPath()
	peak.Sample()

	replanTime, replanAllocs := allocsDuring(func() {
		p.PlanAllDenseInto(dense)
	})
	cell.ReplanMs = float64(replanTime) / float64(time.Millisecond)
	cell.ReplanAllocs = replanAllocs
	peak.Sample()

	var peers int
	for _, st := range dense {
		peers += len(st.Peers)
	}
	cell.MeanPeers = float64(peers) / float64(len(dense))

	if withScan {
		scan := core.NewPlanner(tree, rt)
		scan.DisableFastPath = true
		var scanned []*core.Strategy
		scanTime, _ := allocsDuring(func() {
			scanned = scan.PlanAllDense()
		})
		cell.ScanMs = float64(scanTime) / float64(time.Millisecond)
		if cell.PlanMs > 0 {
			cell.Speedup = cell.ScanMs / cell.PlanMs
		}
		if !reflect.DeepEqual(dense, scanned) {
			return cell, fmt.Errorf("fast path diverged from scan baseline")
		}
		cell.Verified = true
		peak.Sample()
	}

	if s.SimWorkers >= 2 {
		if err := s.simPhase(&cell, net, tree, rt, seed, &peak); err != nil {
			return cell, err
		}
	}
	peak.Sample()
	cell.PeakHeapMB = peak.MB()
	return cell, nil
}

// simPhase runs the cell's topology through one serial and one sharded RP
// packet simulation and records wall clocks plus the digest-equality check.
// Both runs go through the strict oracle at every size and must pass Check;
// any digest mismatch is an error, not a column: a sharded run that is not
// byte-identical to its serial twin is wrong, whatever its speed.
func (s ScalingSweep) simPhase(cell *ScalingCell, net *topology.Network,
	tree *mtree.Tree, rt route.Router, seed uint64, peak *heapPeak) error {
	run := func(workers int) (*protocol.Result, float64, error) {
		eng, err := NewEngine("RP")
		if err != nil {
			return nil, 0, err
		}
		// The package's default event cap was sized for the classic tiers;
		// a million-client run is past it, and the cap must not depend on n.
		cfg := protocol.Config{Packets: simPackets, Interval: 50, SimWorkers: workers,
			DomainClients: s.DomainClients, MaxEvents: 1_000_000_000}
		sess, err := protocol.NewSessionPrebuilt(net, tree, eng, cfg, seed, rt)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res := sess.Run()
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		peak.Sample()
		if err := Check(res); err != nil {
			return nil, 0, fmt.Errorf("sim phase (workers=%d): %w", workers, err)
		}
		return res, ms, nil
	}
	serial, serialMs, err := run(0)
	if err != nil {
		return err
	}
	parallel, parallelMs, err := run(s.SimWorkers)
	if err != nil {
		return err
	}
	sd, pd := ResultDigest(serial), ResultDigest(parallel)
	if sd != pd {
		return fmt.Errorf("sim phase: parallel digest %s diverged from serial %s (workers=%d)",
			pd, sd, s.SimWorkers)
	}
	cell.SimSerialMs = serialMs
	cell.SimParallelMs = parallelMs
	if parallelMs > 0 {
		cell.SimSpeedup = serialMs / parallelMs
	}
	cell.SimSharded = parallel.Sharded
	cell.SimSerialReason = parallel.SerialReason
	cell.SimDomains = parallel.Domains
	cell.SimDigest = sd
	return nil
}

// Format renders the report as an aligned table.
func (r ScalingReport) Format(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "clients\tnodes\tdepth\tbuild(ms)\tplan(ms)\treplan(ms)\tplan workers\tscan(ms)\tspeedup\tplan allocs\treplan allocs\tpeers/client\tfast\tverified\tsim serial(ms)\tsim parallel(ms)\tsim speedup\tsharded\tdomains\tpeak heap(MB)")
	for _, c := range r {
		scan, speedup := "-", "-"
		if c.ScanMs > 0 {
			scan = fmt.Sprintf("%.1f", c.ScanMs)
			speedup = fmt.Sprintf("%.0f×", c.Speedup)
		}
		simSerial, simParallel, simSpeedup, sharded, domains := "-", "-", "-", "-", "-"
		if c.SimSerialMs > 0 {
			simSerial = fmt.Sprintf("%.1f", c.SimSerialMs)
			simParallel = fmt.Sprintf("%.1f", c.SimParallelMs)
			simSpeedup = fmt.Sprintf("%.2f×", c.SimSpeedup)
			sharded = fmt.Sprintf("%v", c.SimSharded)
			if c.SimDomains > 0 {
				domains = strconv.Itoa(c.SimDomains)
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.2f\t%.2f\t%d\t%s\t%s\t%d\t%d\t%.2f\t%v\t%v\t%s\t%s\t%s\t%s\t%s\t%.0f\n",
			c.Clients, c.Nodes, c.TreeDepth, c.BuildMs, c.PlanMs, c.ReplanMs, c.PlanWorkers,
			scan, speedup, c.PlanAllocs, c.ReplanAllocs, c.MeanPeers, c.FastPath, c.Verified,
			simSerial, simParallel, simSpeedup, sharded, domains, c.PeakHeapMB)
	}
	return tw.Flush()
}
