package experiment

import (
	"encoding/csv"
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
	// Sizes are the client counts n.
	Sizes []int
	// ClientsPerRouter shapes the topology (see topology.TreeConfig).
	ClientsPerRouter int
	// ScanCutoff bounds the sizes at which the quadratic scan baseline is
	// also run (and the two result sets compared); 0 means 5000.
	ScanCutoff int
	// BaseSeed derives each cell's topology seed.
	BaseSeed uint64
	// SimWorkers, when >= 2, adds a simulation phase to every cell: one
	// serial RP packet run and one sharded run at this worker count on the
	// same topology, wall-clocked separately, with the two result digests
	// required to match exactly (the sweep errors on divergence — this is
	// the determinism gate the CI smoke tier rides). 0 skips the phase.
	SimWorkers int
	// SimPackets sizes the simulation phase; 0 means 20.
	SimPackets int
	// DomainClients, when positive, runs the sharded half of the simulation
	// phase in hierarchical-domain mode (protocol.Config.DomainClients): one
	// engine per ~DomainClients-member recovery domain instead of the classic
	// fixed shard count. This is the million-client execution mode; the
	// digest-equality gate applies unchanged.
	DomainClients int
}

// hugeClients is the size past which a cell switches to the memory-compact
// representations: BuildLite trees (no Euler/sparse LCA index), oracle
// checking off, and a raised event cap. Below it cells keep the full tree
// and the strict oracle. Every cell plans into dense strategy slices.
const hugeClients = 100_000

// DefaultScaling returns the standard tier: n ∈ {1k, 5k, 20k, 50k}.
func DefaultScaling() ScalingSweep {
	return ScalingSweep{
		Sizes:            []int{1000, 5000, 20000, 50000},
		ClientsPerRouter: 4,
		ScanCutoff:       5000,
		BaseSeed:         1,
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
	// LiteTree reports the memory-compact cell path (BuildLite + oracle
	// off) was used.
	LiteTree bool
	// PeakHeapMB is the largest live heap observed at the cell's phase
	// boundaries (runtime.ReadMemStats HeapAlloc) — the number that decides
	// whether a tier fits a deployment host. Sampled, not continuous: true
	// transient peaks between samples can exceed it.
	PeakHeapMB float64
}

// ScalingReport is the sweep result with the harness's usual renderings.
type ScalingReport []ScalingCell

// Run executes the sweep. Cells run serially on purpose: wall-clock is the
// measurement, so cells must not contend for cores.
func (s ScalingSweep) Run() (ScalingReport, error) {
	cutoff := s.ScanCutoff
	if cutoff == 0 {
		cutoff = 5000
	}
	report := make(ScalingReport, 0, len(s.Sizes))
	for i, n := range s.Sizes {
		cell, err := s.runCell(n, s.BaseSeed+uint64(i)*1000, n <= cutoff)
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
	cfg := topology.DefaultTreeConfig(n)
	if s.ClientsPerRouter > 0 {
		cfg.ClientsPerRouter = s.ClientsPerRouter
	}
	huge := n > hugeClients
	var peak heapPeak
	buildStart := time.Now()
	net, err := topology.GenerateTree(cfg, rng.New(seed))
	if err != nil {
		return ScalingCell{}, err
	}
	build := mtree.Build
	if huge {
		build = mtree.BuildLite
	}
	tree, err := build(net)
	if err != nil {
		return ScalingCell{}, err
	}
	rt := route.NewTreeTables(tree)
	cell := ScalingCell{
		Clients:  n,
		Nodes:    net.NumNodes(),
		BuildMs:  float64(time.Since(buildStart)) / float64(time.Millisecond),
		LiteTree: huge,
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

	if withScan && !huge {
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
		if err := s.simPhase(&cell, net, tree, rt, seed, huge, &peak); err != nil {
			return cell, err
		}
	}
	peak.Sample()
	cell.PeakHeapMB = peak.MB()
	return cell, nil
}

// simPhase runs the cell's topology through one serial and one sharded RP
// packet simulation and records wall clocks plus the digest-equality check.
// Any digest mismatch is an error, not a column: a sharded run that is not
// byte-identical to its serial twin is wrong, whatever its speed.
func (s ScalingSweep) simPhase(cell *ScalingCell, net *topology.Network,
	tree *mtree.Tree, rt route.Router, seed uint64, huge bool, peak *heapPeak) error {
	packets := s.SimPackets
	if packets == 0 {
		packets = 20
	}
	run := func(workers int) (*protocol.Result, float64, error) {
		eng, err := NewEngine("RP")
		if err != nil {
			return nil, 0, err
		}
		cfg := protocol.Config{Packets: packets, Interval: 50, SimWorkers: workers,
			DomainClients: s.DomainClients}
		if huge {
			// The strict oracle is O(clients × packets) bookkeeping per shard
			// and the default event cap was sized for the classic tiers; the
			// million tier turns the first off and raises the second.
			cfg.Check = protocol.CheckOff
			cfg.MaxEvents = 1_000_000_000
		}
		sess, err := protocol.NewSessionPrebuilt(net, tree, eng, cfg, seed, rt)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res := sess.Run()
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		peak.Sample()
		if !res.Complete {
			return nil, 0, fmt.Errorf("sim phase (workers=%d): incomplete run", workers)
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

// Markdown renders the report as a GitHub table for EXPERIMENTS.md.
func (r ScalingReport) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "| clients | nodes | depth | build (ms) | plan (ms) | replan (ms) | plan workers | scan (ms) | speedup | replan allocs | sim serial (ms) | sim parallel (ms) | sim speedup | domains | peak heap (MB) |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"); err != nil {
		return err
	}
	for _, c := range r {
		scan, speedup := "—", "—"
		if c.ScanMs > 0 {
			scan = fmt.Sprintf("%.1f", c.ScanMs)
			speedup = fmt.Sprintf("%.0f×", c.Speedup)
		}
		simSerial, simParallel, simSpeedup, domains := "—", "—", "—", "—"
		if c.SimSerialMs > 0 {
			simSerial = fmt.Sprintf("%.1f", c.SimSerialMs)
			simParallel = fmt.Sprintf("%.1f", c.SimParallelMs)
			simSpeedup = fmt.Sprintf("%.2f×", c.SimSpeedup)
			if c.SimDomains > 0 {
				domains = strconv.Itoa(c.SimDomains)
			}
		}
		if _, err := fmt.Fprintf(w, "| %d | %d | %d | %.1f | %.2f | %.2f | %d | %s | %s | %d | %s | %s | %s | %s | %.0f |\n",
			c.Clients, c.Nodes, c.TreeDepth, c.BuildMs, c.PlanMs, c.ReplanMs, c.PlanWorkers,
			scan, speedup, c.ReplanAllocs, simSerial, simParallel, simSpeedup,
			domains, c.PeakHeapMB); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders the report for plotting.
func (r ScalingReport) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"clients", "nodes", "depth", "build_ms", "plan_ms",
		"replan_ms", "plan_workers", "scan_ms", "speedup", "plan_allocs", "replan_allocs",
		"mean_peers", "fast_path", "verified",
		"sim_serial_ms", "sim_parallel_ms", "sim_speedup", "sim_sharded", "sim_digest",
		"sim_domains", "lite_tree", "peak_heap_mb"}); err != nil {
		return err
	}
	for _, c := range r {
		rec := []string{
			strconv.Itoa(c.Clients), strconv.Itoa(c.Nodes),
			strconv.Itoa(int(c.TreeDepth)),
			strconv.FormatFloat(c.BuildMs, 'f', 3, 64),
			strconv.FormatFloat(c.PlanMs, 'f', 3, 64),
			strconv.FormatFloat(c.ReplanMs, 'f', 3, 64),
			strconv.Itoa(c.PlanWorkers),
			strconv.FormatFloat(c.ScanMs, 'f', 3, 64),
			strconv.FormatFloat(c.Speedup, 'f', 2, 64),
			strconv.FormatUint(c.PlanAllocs, 10),
			strconv.FormatUint(c.ReplanAllocs, 10),
			strconv.FormatFloat(c.MeanPeers, 'f', 3, 64),
			strconv.FormatBool(c.FastPath),
			strconv.FormatBool(c.Verified),
			strconv.FormatFloat(c.SimSerialMs, 'f', 3, 64),
			strconv.FormatFloat(c.SimParallelMs, 'f', 3, 64),
			strconv.FormatFloat(c.SimSpeedup, 'f', 2, 64),
			strconv.FormatBool(c.SimSharded),
			c.SimDigest,
			strconv.Itoa(c.SimDomains),
			strconv.FormatBool(c.LiteTree),
			strconv.FormatFloat(c.PeakHeapMB, 'f', 1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
