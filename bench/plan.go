package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"rmcast/internal/core"
)

// plansDigest is an FNV-1a hash of dense strategies: each client's peer IDs
// and the bits of its expected delay, with a marker for an empty slot.
func plansDigest(dense []*core.Strategy) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, st := range dense {
		if st == nil {
			put(math.MaxUint64)
			continue
		}
		put(uint64(len(st.Peers)))
		for _, c := range st.Peers {
			put(uint64(c.Peer))
		}
		put(math.Float64bits(st.ExpectedDelay))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// planMillion is the million-client planning cell: a compact tree of 1M
// clients and its planner, then passes of one full dense plan (which builds
// the tree aggregate) and one steady-state replan into the same slice, each
// pass on a fresh planner. There is no simulation. The plan and the replan
// must agree.
//
// A pass takes seconds, and 1M clients' planning is memory-bound, so its
// time moves with the host's memory traffic; an untraced rep runs passes on
// its one set-up while another still fits in the budget, so the medians
// rest on as many passes as the budget holds rather than on one per set-up.
func planMillion(r *run) (rep func(bool) error, probe func() error) {
	rep = func(task bool) error {
		var t treeNet
		var p *core.Planner
		err := r.setup(func() (err error) {
			if t, err = r.buildTree(r.sc.planClients, r.seed, true); err != nil {
				return err
			}
			_ = r.span("core.planner", func() error { p = core.NewPlanner(t.tree, t.rt); return nil })
			return nil
		})
		if err != nil || !task {
			return err
		}
		for {
			t0 := time.Now()
			r.planPass(p, float64(len(t.tree.Clients)))
			if !r.fits(time.Since(t0)) {
				return nil
			}
			// The old planner's aggregate is garbage before the collection,
			// so the next pass's aggregate reuses its memory.
			_ = r.span("core.planner", func() error { p = core.NewPlanner(t.tree, t.rt); return nil })
			r.gc()
		}
	}
	return rep, nil
}

// planPass times p's first dense plan and a replan into the same slice,
// and checks them.
func (r *run) planPass(p *core.Planner, clients float64) {
	var (
		dense                    []*core.Strategy
		planD, replanD           time.Duration
		planAllocs, replanAllocs uint64
		planSum                  string
	)
	_, _ = r.task(func() float64 { return clients }, func() error {
		planD, planAllocs = r.allocsDuring("core.plan", func() { dense = p.PlanAllDense() })
		_ = r.span("bench.check", func() error { planSum = plansDigest(dense); return nil })
		replanD, replanAllocs = r.allocsDuring("core.replan", func() { p.PlanAllDenseInto(dense) })
		return nil
	})
	var problems []string
	_ = r.span("bench.check", func() error {
		if !p.UsesFastPath() {
			problems = append(problems, "planner left the tree-aggregated fast path")
		}
		if sum := plansDigest(dense); sum != planSum {
			problems = append(problems, fmt.Sprintf("replan digest %s differs from plan digest %s", sum, planSum))
		}
		problems = append(problems, r.digest("plan-1m.plans", r.seed, planSum)...)
		return nil
	})
	r.tally(2, problems)
	// The end-to-end pair carries both planning times: task_s is plan_s
	// and rate_per_s is clients / replan_s.
	r.note("task_s", "s", planD.Seconds())
	r.note("plan_s", "s", planD.Seconds())
	r.note("replan_s", "s", replanD.Seconds())
	r.note("rate_per_s", "1/s", clients/replanD.Seconds())
	r.note("core.plan_ms", "ms", float64(planD.Nanoseconds())/1e6)
	r.note("core.replan_ms", "ms", float64(replanD.Nanoseconds())/1e6)
	r.note("core.plan_allocs", "count", float64(planAllocs))
	r.note("core.replan_allocs", "count", float64(replanAllocs))
	r.note("core.fast_path", "count", b2f(p.UsesFastPath()))
}
