package main

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/rng"
	"rmcast/internal/strategysvc"
)

// churnOp is one membership change of the churn script.
type churnOp struct {
	join bool
	node graph.NodeID
}

// churnScript draws n membership changes from the seed, starting from the
// full group, each valid where it stands: a leave names a member and a join
// a non-member. Membership wanders around 90% of the group; the further it
// strays, the likelier the step back.
func churnScript(clients []graph.NodeID, n int, seed uint64) []churnOp {
	rnd := rng.New(seed ^ 0xc4c4)
	in := append([]graph.NodeID(nil), clients...)
	var out []graph.NodeID
	target, spread := 0.9*float64(len(clients)), 0.1*float64(len(clients))
	take := func(s []graph.NodeID) (graph.NodeID, []graph.NodeID) {
		i := rnd.Intn(len(s))
		v := s[i]
		s[i] = s[len(s)-1]
		return v, s[:len(s)-1]
	}
	script := make([]churnOp, n)
	for i := range script {
		leave := min(max(0.5+(float64(len(in))-target)/spread, 0.05), 0.95)
		if len(out) == 0 || (len(in) > 1 && rnd.Float64() < leave) {
			var v graph.NodeID
			v, in = take(in)
			out = append(out, v)
			script[i] = churnOp{false, v}
		} else {
			var v graph.NodeID
			v, out = take(out)
			in = append(in, v)
			script[i] = churnOp{true, v}
		}
	}
	return script
}

// members returns the clients active after the script, in client order.
func members(clients []graph.NodeID, script []churnOp) []graph.NodeID {
	active := map[graph.NodeID]bool{}
	for _, c := range clients {
		active[c] = true
	}
	for _, o := range script {
		active[o.node] = o.join
	}
	var out []graph.NodeID
	for _, c := range clients {
		if active[c] {
			out = append(out, c)
		}
	}
	return out
}

var getSink atomic.Uint64

// readers runs n closed-loop Get readers against the service until stop
// closes, each over its own seed-drawn client sequence. queries advances
// every 1024 queries. With hists non-nil each reader also times every query
// into its histogram.
func readers(svc *strategysvc.Service, clients []graph.NodeID, seed uint64, n int,
	hists []strategysvc.Hist, queries *atomic.Uint64, stop <-chan struct{}, wg *sync.WaitGroup) {
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rng.New(seed + uint64(g) + 1)
			ids := make([]graph.NodeID, 4096)
			for i := range ids {
				ids[i] = clients[rnd.Intn(len(clients))]
			}
			var h *strategysvc.Hist
			if hists != nil {
				h = &hists[g]
			}
			var nils uint64
			for i := 0; ; {
				select {
				case <-stop:
					getSink.Add(nils)
					return
				default:
				}
				for end := i + 1024; i < end; i++ {
					c := ids[i&(len(ids)-1)]
					var st *core.Strategy
					if h != nil {
						t0 := time.Now()
						st = svc.Get(c)
						h.Record(time.Since(t0).Nanoseconds())
					} else {
						st = svc.Get(c)
					}
					if st == nil {
						nils++
					}
				}
				queries.Add(1024)
			}
		}(g)
	}
}

// svcNetworkSeed draws svc-churn's network whatever the seed: a service's
// network outlives its churn, so --seed draws the churn script and the
// readers' queries. With the network drawn from the seed as well, a
// script's time moved by up to a third from seed to seed, because the cost
// of a roster repair depends on the network's shape.
const svcNetworkSeed = defaultSeed

// svcChurn is the strategy service under saturated churn: one writer
// enqueues a seed-drawn Join/Leave script as fast as backpressure allows
// and then flushes, while closed-loop readers query the service. The timed
// task is the script, from the first enqueue until Flush returns.
func svcChurn(r *run) (rep func(bool) error, probe func() error) {
	nReaders := max(1, r.workers-1) // one core stays with the applier
	var (
		script  []churnOp
		final   []graph.NodeID
		last    treeNet
		lastTab []*core.Strategy
		lastD   time.Duration
	)
	rep = func(task bool) error {
		var t treeNet
		var svc *strategysvc.Service
		err := r.setup(func() (err error) {
			if t, err = r.buildTree(r.sc.svcClients, svcNetworkSeed, false); err != nil {
				return err
			}
			var p *core.Planner
			_ = r.span("core.planner", func() error { p = core.NewPlanner(t.tree, t.rt); return nil })
			return r.span("strategysvc.new", func() error { svc = strategysvc.New(p, strategysvc.Config{}); return nil })
		})
		if err != nil {
			return err
		}
		defer func() { _ = r.span("strategysvc.close", func() error { svc.Close(); return nil }) }()
		if !task {
			return nil
		}
		if script == nil {
			_ = r.span("bench.input", func() error {
				script = churnScript(t.tree.Clients, r.sc.svcOps, r.seed)
				final = members(t.tree.Clients, script)
				return nil
			})
		}

		var hists []strategysvc.Hist
		if r.rec != nil {
			hists = make([]strategysvc.Hist, nReaders)
		}
		var queries atomic.Uint64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		readers(svc, t.tree.Clients, r.seed, nReaders, hists, &queries, stop, &wg)
		var q0, q1 uint64
		d, _ := r.task(func() float64 { return float64(len(script)) }, func() error {
			return r.span("strategysvc.churn", func() error {
				q0 = queries.Load()
				for _, o := range script {
					if o.join {
						svc.Join(o.node)
					} else {
						svc.Leave(o.node)
					}
				}
				svc.Flush()
				q1 = queries.Load()
				return nil
			})
		})
		_ = r.span("bench.readers", func() error { close(stop); wg.Wait(); return nil })

		st := svc.Stats()
		snap := svc.Snapshot()
		var problems []string
		_ = r.span("bench.check", func() error {
			if snap.Epoch != st.Applied || st.Applied != uint64(len(script)) || st.Rejected != 0 {
				problems = append(problems, fmt.Sprintf("epoch %d, applied %d, rejected %d after a script of %d valid ops",
					snap.Epoch, st.Applied, st.Rejected, len(script)))
			}
			fresh := core.NewRosterActive(core.NewPlanner(t.tree, t.rt), final).StrategiesDense(nil)
			if !reflect.DeepEqual(snap.Strategies(), fresh) {
				problems = append(problems, "final table differs from a fresh roster over the final membership")
			}
			problems = append(problems, r.digest("svc-churn.table", r.seed, plansDigest(snap.Strategies()))...)
			return nil
		})
		r.tally(len(script), problems)
		r.note("task_s", "s", d.Seconds())
		r.note("churn_ops_per_s", "ops/s", float64(len(script))/d.Seconds())
		r.note("get_qps", "queries/s", float64(q1-q0)/d.Seconds())
		r.note("rate_per_s", "1/s", float64(q1-q0)/d.Seconds())
		if r.rec != nil {
			var h strategysvc.Hist
			for i := range hists {
				h.Merge(&hists[i])
			}
			r.note("strategysvc.get_p50_ns", "ns", h.Quantile(0.50))
			r.note("strategysvc.get_p99_ns", "ns", h.Quantile(0.99))
			r.note("strategysvc.batches", "count", float64(st.Batches))
			r.note("strategysvc.mean_batch", "count", st.MeanBatch())
			r.note("strategysvc.batch_ms", "ms", float64(d.Nanoseconds())/1e6/float64(max(st.Batches, 1)))
			last, lastTab, lastD = t, snap.Strategies(), d
		}
		return nil
	}

	// probe drives a twin roster, outside any service, through the same
	// script: the cost and reach of one incremental roster repair, and the
	// roster's share of the service's write phase. The twin's final table
	// must equal the service's.
	probe = func() error {
		var roster *core.Roster
		var affected int
		var total time.Duration
		var err error
		_ = r.span("bench.twin", func() error {
			roster = core.NewRosterActive(core.NewPlanner(last.tree, last.rt), last.tree.Clients)
			for _, o := range script {
				var aff []graph.NodeID
				t0 := time.Now()
				if o.join {
					aff, err = roster.Join(o.node)
				} else {
					aff, err = roster.Leave(o.node)
				}
				total += time.Since(t0)
				if err != nil {
					return nil
				}
				affected += len(aff)
			}
			return nil
		})
		var problems []string
		_ = r.span("bench.check", func() error {
			if err != nil {
				problems = append(problems, "twin roster rejected a script op: "+err.Error())
			} else if !reflect.DeepEqual(roster.StrategiesDense(nil), lastTab) {
				problems = append(problems, "twin roster's final table differs from the service's")
			}
			r.note("core.fast_path", "count", b2f(core.NewPlanner(last.tree, last.rt).UsesFastPath()))
			return nil
		})
		r.tally(1, problems)
		n := float64(len(script))
		r.note("core.roster_op_us", "us", float64(total.Nanoseconds())/1e3/n)
		r.note("core.roster_affected_per_op", "count", float64(affected)/n)
		r.note("strategysvc.roster_share", "ratio", total.Seconds()/lastD.Seconds())
		return nil
	}
	return rep, probe
}
