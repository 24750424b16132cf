package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"rmcast/internal/experiment"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// cell is one simulation run of a Figure 5–8 pass.
type cell struct {
	routers           int
	loss              float64
	proto             string
	topoSeed, simSeed uint64
	// fig and row locate the cell's point in the pass's figures: fig 0 is
	// Figure 5 (one row per size), fig 1 is Figure 7 (one row per loss).
	fig, row int
}

// sweepCells lays out the cells of one pass with the seeds
// experiment.GroupSizeSweep and experiment.LossSweep give them at one
// replicate, so a serial pass here reproduces the pooled pass cell for cell.
// The probe checks that it does.
func sweepCells(g experiment.GroupSizeSweep, l experiment.LossSweep) []cell {
	var cells []cell
	for si, size := range g.Sizes {
		seed := g.BaseSeed + uint64(si)*1000
		for _, p := range experiment.PaperProtocols {
			cells = append(cells, cell{size, g.Loss, p, seed, seed + 1, 0, si})
		}
	}
	for li, pct := range l.LossPcts {
		for _, p := range experiment.PaperProtocols {
			cells = append(cells, cell{l.Routers, pct / 100, p, l.BaseSeed, l.BaseSeed + uint64(li)*100 + 1, 1, li})
		}
	}
	return cells
}

// buildCell generates a cell's topology, tree and routing tables and
// constructs its session, each in its layer's span.
func (r *run) buildCell(c cell) (*protocol.Session, error) {
	var (
		topo *topology.Network
		tree *mtree.Tree
		rt   *route.Tables
	)
	err := r.span("topology.generate", func() (err error) {
		cfg := topology.DefaultConfig(c.routers)
		cfg.LossProb = c.loss
		topo, err = topology.Generate(cfg, rng.New(c.topoSeed))
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := r.span("mtree.build", func() (err error) { tree, err = mtree.Build(topo); return err }); err != nil {
		return nil, err
	}
	_ = r.span("route.build", func() error { rt = route.Build(topo); return nil })
	return r.session(topo, tree, rt, c.proto, r.cellConfig(protocol.CheckStrict), c.simSeed)
}

// cellConfig is the session configuration experiment.Run gives a cell.
func (r *run) cellConfig(check protocol.CheckMode) protocol.Config {
	cfg := protocol.DefaultConfig()
	cfg.Packets = r.sc.sweepPackets
	cfg.Check = check
	return cfg
}

// session constructs a protocol session, engine attach included, in a span.
func (r *run) session(topo *topology.Network, tree *mtree.Tree, rt route.Router,
	proto string, cfg protocol.Config, seed uint64) (*protocol.Session, error) {
	var s *protocol.Session
	err := r.span("protocol.session", func() error {
		eng, err := experiment.NewEngine(proto)
		if err != nil {
			return err
		}
		s, err = protocol.NewSessionPrebuilt(topo, tree, eng, cfg, seed, rt)
		return err
	})
	return s, err
}

// runProblems lists what is wrong with a finished run, by the rules
// experiment.Run applies to a sweep cell.
func runProblems(what string, res *protocol.Result) []string {
	var out []string
	if !res.Complete {
		out = append(out, what+": hit the event cap")
	}
	if res.Stats.Unrecovered > 0 {
		out = append(out, fmt.Sprintf("%s: %d losses unrecovered", what, res.Stats.Unrecovered))
	}
	if len(res.Violations) > 0 {
		out = append(out, fmt.Sprintf("%s: %d oracle violations, first: %s", what, len(res.Violations), res.Violations[0]))
	}
	return out
}

// tablesDigest is an FNV-1a hash of the figures rendered as text tables.
func tablesDigest(figs []*experiment.Figure) (string, error) {
	h := fnv.New64a()
	for _, f := range figs {
		if err := f.Format(h); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// simTotals accumulates the simulation runs of one protocol.
type simTotals struct {
	runNS, events, allocs   float64
	recoveries, duplicates  float64
	requestHops, repairHops float64
}

func (t *simTotals) add(d time.Duration, res *protocol.Result, allocs uint64) {
	t.runNS += float64(d.Nanoseconds())
	t.events += float64(res.Events)
	t.allocs += float64(allocs)
	t.recoveries += float64(res.Stats.Recoveries)
	t.duplicates += float64(res.Stats.Duplicates)
	t.requestHops += float64(res.Hops.Request)
	t.repairHops += float64(res.Hops.Repair)
}

// runSim runs s inside a sim.run span, counting its allocations into the
// protocol's totals.
func (r *run) runSim(s *protocol.Session, totals map[string]*simTotals, proto string) (*protocol.Result, time.Duration) {
	var res *protocol.Result
	d, allocs := r.allocsDuring("sim.run", func() { res = s.Run() })
	t := totals[proto]
	if t == nil {
		t = &simTotals{}
		totals[proto] = t
	}
	t.add(d, res, allocs)
	return res, d
}

// noteSim records the simulation layer's and the engines' metrics from the
// per-protocol totals.
func (r *run) noteSim(totals map[string]*simTotals) {
	var all simTotals
	for _, t := range totals {
		all.runNS += t.runNS
		all.events += t.events
		all.allocs += t.allocs
	}
	r.note("sim.run_ms", "ms", all.runNS/1e6)
	r.note("sim.events", "count", all.events)
	r.note("sim.ns_per_event", "ns", all.runNS/all.events)
	r.note("sim.allocs_per_event", "count", all.allocs/all.events)
	for _, p := range experiment.PaperProtocols {
		t, ok := totals[p]
		if !ok {
			continue
		}
		if len(totals) > 1 {
			r.note("sim.ns_per_event."+p, "ns", t.runNS/t.events)
			r.note("sim.run_share."+p, "ratio", t.runNS/all.runNS)
		}
		r.note("engine.events_per_recovery."+p, "count", t.events/t.recoveries)
		r.note("engine.request_hops_per_recovery."+p, "count", t.requestHops/t.recoveries)
		r.note("engine.repair_hops_per_recovery."+p, "count", t.repairHops/t.recoveries)
		r.note("engine.useful_repair_ratio."+p, "ratio", t.recoveries/(t.recoveries+t.duplicates))
	}
}

// paperSeed is the base seed of the paper's figures as EXPERIMENTS.md
// reproduces them.
const paperSeed = 2003

// paperSweep is the paper's own evaluation: one pass is Figures 5–8 (SRM,
// RMA and RP over the size sweep and the loss sweep) on the experiment
// package's worker pool. The pool builds every cell's network inside the
// pass, out of the benchmark's sight, so set-up builds each distinct network
// of the pass once, with its tree, routes and an RP session: the layer
// set-up the pass repeats per cell, timed on its own. The check holds every
// point of the pass to the client count of its set-up network.
//
// Its inputs are the paper's, at base seed 2003, whatever the seed: a
// pass's cost rides on a few topologies, so a seeded pass would swing by
// ±25% from seed to seed and the benchmark would measure the topology draw
// rather than the code (README.md has the numbers).
func paperSweep(r *run) (rep func(task bool) error, probe func() error) {
	g := experiment.PaperFigure56()
	g.Sizes, g.Packets, g.BaseSeed, g.Parallel = r.sc.sweepSizes, r.sc.sweepPackets, paperSeed, r.workers
	l := experiment.PaperFigure78()
	l.Routers, l.LossPcts, l.Packets, l.BaseSeed, l.Parallel = r.sc.lossRouters, r.sc.sweepLoss, r.sc.sweepPackets, paperSeed, r.workers
	cells := sweepCells(g, l)
	netKey := func(c cell) [2]uint64 { return [2]uint64{uint64(c.routers), c.topoSeed} }
	var distinct []cell
	seen := map[[2]uint64]bool{}
	for _, c := range cells {
		if k := netKey(c); !seen[k] {
			seen[k] = true
			c.proto = "RP"
			distinct = append(distinct, c)
		}
	}

	var figs []*experiment.Figure // the last pooled pass: Figures 5, 7, 6, 8
	var pooled time.Duration
	rep = func(task bool) error {
		clients := map[[2]uint64]int{} // client count of each set-up network
		err := r.setup(func() error {
			for _, c := range distinct {
				s, err := r.buildCell(c)
				if err != nil {
					return err
				}
				clients[netKey(c)] = len(s.Topo.Clients)
			}
			return nil
		})
		if err != nil || !task {
			return err
		}
		// The pass's work is its recoveries: every loss of every cell.
		recoveries := func() float64 {
			var n float64
			for _, f := range figs[:2] {
				for _, row := range f.Rows {
					for _, p := range row.Points {
						n += float64(p.Losses)
					}
				}
			}
			return n
		}
		d, err := r.task(recoveries, func() error {
			return r.span("experiment.sweep", func() error {
				lat5, bw6, err := g.Run()
				if err != nil {
					return err
				}
				lat7, bw8, err := l.Run()
				if err != nil {
					return err
				}
				figs = []*experiment.Figure{lat5, lat7, bw6, bw8}
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		pooled = d
		var problems []string
		_ = r.span("bench.check", func() error {
			for _, c := range cells {
				if got, want := figs[c.fig].Rows[c.row].Points[c.proto].Clients, clients[netKey(c)]; got != want {
					problems = append(problems, fmt.Sprintf("%s n=%d p=%g ran %d clients, its network has %d",
						c.proto, c.routers, c.loss, got, want))
				}
			}
			sum, err := tablesDigest(figs)
			if err != nil {
				problems = append(problems, err.Error())
			} else {
				problems = append(problems, r.digest("paper-fig5-8.tables", paperSeed, sum)...)
			}
			return nil
		})
		r.tally(len(cells), problems)
		r.note("task_s", "s", d.Seconds())
		r.note("sweep_s", "s", d.Seconds())
		r.note("rate_per_s", "1/s", recoveries()/d.Seconds())
		return nil
	}

	// probe reruns the pass serially with a span around every layer call.
	// Each cell must reproduce its point of the pooled pass. Each cell of the
	// size sweep (a third of the pass's time) is followed by a twin with the
	// invariant oracle off, which must reproduce the cell's result digest and
	// gives the oracle's share of the run; twinning every cell would double
	// the probe's simulation time.
	probe = func() error {
		totals := map[string]*simTotals{}
		var cellMS []float64
		var strictNS, offNS float64
		for _, c := range cells {
			t0 := time.Now()
			var s *protocol.Session
			var res *protocol.Result
			var run time.Duration
			err := r.span("bench.cell", func() (err error) {
				if s, err = r.buildCell(c); err != nil {
					return err
				}
				res, run = r.runSim(s, totals, c.proto)
				return nil
			})
			cellMS = append(cellMS, float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil {
				return err
			}
			what := fmt.Sprintf("%s n=%d p=%g", c.proto, c.routers, c.loss)
			bad := runProblems(what, res)
			p := figs[c.fig].Rows[c.row].Points[c.proto]
			if p.Latency != res.AvgLatency() || p.Bandwidth != res.BandwidthPerRecovery() ||
				p.Losses != res.Stats.Losses || p.Clients != res.Clients {
				bad = append(bad, what+": serial cell differs from the pooled pass")
			}
			if c.fig != 0 {
				r.tally(1, bad)
				continue
			}
			strictNS += float64(run.Nanoseconds())
			var off *protocol.Result
			err = r.span("bench.twin", func() error {
				eng, err := experiment.NewEngine(c.proto)
				if err != nil {
					return err
				}
				twin, err := protocol.NewSessionPrebuilt(s.Topo, s.Tree, eng, r.cellConfig(protocol.CheckOff), c.simSeed, s.Routes)
				if err != nil {
					return err
				}
				t1 := time.Now()
				off = twin.Run()
				offNS += float64(time.Since(t1).Nanoseconds())
				return nil
			})
			if err != nil {
				return err
			}
			if experiment.ResultDigest(off) != experiment.ResultDigest(res) {
				bad = append(bad, what+": run with the oracle off differs from the checked run")
			}
			r.tally(1, bad)
		}
		var serialMS float64
		for _, ms := range cellMS {
			serialMS += ms
		}
		r.noteSim(totals)
		r.note("experiment.cells", "count", float64(len(cells)))
		r.note("experiment.pool_speedup", "ratio", serialMS/1e3/pooled.Seconds())
		r.note("experiment.cell_ms_p50", "ms", percentile(cellMS, 0.5))
		r.note("experiment.cell_ms_p90", "ms", percentile(cellMS, 0.9))
		r.note("check.share", "ratio", 1-offNS/strictNS)
		return nil
	}
	return rep, probe
}
