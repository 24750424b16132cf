package main

import (
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/experiment"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// treeNet is a pure-tree topology with its multicast tree and tree routes.
type treeNet struct {
	net  *topology.Network
	tree *mtree.Tree
	rt   *route.TreeTables
}

// buildTree generates the scaling tier's tree-only topology of n clients
// from seed, builds its multicast tree (the compact BuildLite form when
// lite) and its tree routes, each in its layer's span.
func (r *run) buildTree(n int, seed uint64, lite bool) (treeNet, error) {
	var t treeNet
	err := r.span("topology.generate", func() (err error) {
		t.net, err = topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(seed))
		return err
	})
	if err != nil {
		return t, err
	}
	build := mtree.Build
	if lite {
		build = mtree.BuildLite
	}
	if err := r.span("mtree.build", func() (err error) { t.tree, err = build(t.net); return err }); err != nil {
		return t, err
	}
	_ = r.span("route.build", func() error { t.rt = route.NewTreeTables(t.tree); return nil })
	return t, nil
}

// treeRun is one RP simulation of the 50k-client tree with the strict
// oracle: serial (tree-50k), or through the hierarchical-domain runner
// (tree-50k-domains), whose result digest must equal the serial run's.
func treeRun(domains bool) func(r *run) (func(bool) error, func() error) {
	return func(r *run) (rep func(bool) error, probe func() error) {
		cfg := protocol.Config{Packets: r.sc.treePackets, Interval: 50}
		wantDomains := 0
		if domains {
			// The domain runner engages only with two or more workers; the
			// digest does not depend on the worker count.
			cfg.SimWorkers = max(2, r.workers)
			cfg.DomainClients = r.sc.domainClients
			wantDomains = (r.sc.treeClients + r.sc.domainClients - 1) / r.sc.domainClients
		}
		// The last rep's inputs and result, for the probe's twin.
		var (
			last    treeNet
			lastRes *protocol.Result
			lastRun time.Duration
		)
		rep = func(task bool) error {
			var t treeNet
			var s *protocol.Session
			err := r.setup(func() (err error) {
				if t, err = r.buildTree(r.sc.treeClients, r.seed, false); err != nil {
					return err
				}
				s, err = r.session(t.net, t.tree, t.rt, "RP", cfg, r.seed)
				return err
			})
			if err != nil || !task {
				return err
			}
			totals := map[string]*simTotals{}
			var res *protocol.Result
			d, _ := r.task(func() float64 { return float64(res.Stats.Recoveries) }, func() error {
				res, _ = r.runSim(s, totals, "RP")
				return nil
			})
			var problems []string
			_ = r.span("bench.check", func() error {
				problems = runProblems("RP run", res)
				if res.Sharded != domains || res.Domains != wantDomains {
					problems = append(problems, fmt.Sprintf("run sharded=%v with %d domains, want sharded=%v with %d (serial reason: %q)",
						res.Sharded, res.Domains, domains, wantDomains, res.SerialReason))
				}
				problems = append(problems, r.digest("tree-50k.result", r.seed, experiment.ResultDigest(res))...)
				return nil
			})
			r.tally(1, problems)
			r.note("task_s", "s", d.Seconds())
			r.note("run_s", "s", d.Seconds())
			r.note("rate_per_s", "1/s", float64(res.Stats.Recoveries)/d.Seconds())
			r.noteSim(totals)
			r.note("parallel.sharded", "count", b2f(res.Sharded))
			r.note("parallel.domains", "count", float64(res.Domains))
			if r.rec != nil {
				// Kept only for the probe, so an untraced rep's network is
				// garbage before the next rep builds its own, and peak RSS
				// does not grow with the rep count.
				last, lastRes, lastRun = t, res, d
			}
			return nil
		}

		// twin reruns the traced rep's inputs under cfg and checks that the
		// result digest is the rep's.
		twin := func(cfg protocol.Config) (time.Duration, error) {
			var res *protocol.Result
			var d time.Duration
			err := r.span("bench.twin", func() error {
				eng, err := experiment.NewEngine("RP")
				if err != nil {
					return err
				}
				s, err := protocol.NewSessionPrebuilt(last.net, last.tree, eng, cfg, r.seed, last.rt)
				if err != nil {
					return err
				}
				start := time.Now()
				res = s.Run()
				d = time.Since(start)
				return nil
			})
			if err != nil {
				return 0, err
			}
			var problems []string
			_ = r.span("bench.check", func() error {
				if experiment.ResultDigest(res) != experiment.ResultDigest(lastRes) {
					problems = append(problems, "twin run's digest differs from the rep's")
				}
				return nil
			})
			r.tally(1, problems)
			return d, nil
		}

		// probe measures the oracle's share of the run with a twin that has
		// it off and, for tree-50k-domains, the domain runner's speed-up over
		// a serial twin.
		probe = func() error {
			off := cfg
			off.Check = protocol.CheckOff
			d, err := twin(off)
			if err != nil {
				return err
			}
			r.note("check.share", "ratio", 1-d.Seconds()/lastRun.Seconds())
			_ = r.span("bench.check", func() error {
				r.note("core.fast_path", "count", b2f(core.NewPlanner(last.tree, last.rt).UsesFastPath()))
				return nil
			})
			if !domains {
				return nil
			}
			d, _ = r.timed("parallel.partition", func() error {
				mtree.PartitionDomains(last.tree, r.sc.domainClients)
				return nil
			})
			r.note("parallel.setup_ms", "ms", float64(d.Nanoseconds())/1e6)
			serial := cfg
			serial.SimWorkers, serial.DomainClients = 0, 0
			if d, err = twin(serial); err != nil {
				return err
			}
			r.note("parallel.speedup", "ratio", d.Seconds()/lastRun.Seconds())
			return nil
		}
		return rep, probe
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
