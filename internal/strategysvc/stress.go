package strategysvc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// This file is the stress harness behind `strategy -stress` and the
// readers × churn benchmark grid: synthetic churn at a target rate plus
// query-loop readers with per-query latency histograms.

// DriveChurn issues Join/Leave churn against the service at the given rate
// (ops/sec) until stop closes. A 1 ms-tick accumulator catches starved
// ticks up in bursts — exactly the coalescing workload the applier batches.
// A 16-slot ring of departed members keeps every op valid: a step either
// re-joins the member its slot holds or departs the next client into it,
// so membership oscillates within 16 of full. The sequence is a pure
// function of (clients, rate, elapsed time).
func DriveChurn(svc *Service, clients []graph.NodeID, rate int, stop <-chan struct{}) {
	const window = 16
	var out [window]graph.NodeID
	for i := range out {
		out[i] = graph.None
	}
	next, slot := 0, 0
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	begin := time.Now()
	var issued int64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		due := int64(time.Since(begin).Seconds() * float64(rate))
		for ; issued < due; issued++ {
			// Re-check stop inside the catch-up loop: when the applier is
			// slower than the target rate the queue exerts backpressure and
			// this loop can outlive many ticks.
			select {
			case <-stop:
				return
			default:
			}
			if prev := out[slot]; prev != graph.None {
				svc.Join(prev)
				out[slot] = graph.None
			} else {
				v := clients[next]
				next = (next + 1) % len(clients)
				svc.Leave(v)
				out[slot] = v
			}
			slot = (slot + 1) % window
		}
	}
}

var stressSink atomic.Uint64

// StressResult is what one Stress run measured.
type StressResult struct {
	// Queries is the total query count across all readers; Elapsed the
	// measured wall time, so Queries/Elapsed.Seconds() is the aggregate
	// query throughput.
	Queries uint64
	Elapsed time.Duration
	// P50 and P99 are per-query latency quantiles in nanoseconds (the
	// timed window is one Get plus one monotonic clock read).
	P50, P99 float64
	// Stats is the applier counter snapshot at the end of the run.
	Stats Stats
	// Version and Epoch stamp the final snapshot.
	Version, Epoch uint64
}

// Stress runs the readers × churn workload for the given duration: readers
// goroutines query uniformly random clients in a closed loop while
// DriveChurn applies churn at churnRate ops/sec in the background (0: no
// churn). It reports aggregate throughput, latency quantiles, and the
// applier's batching counters. Queries-per-second on a host with fewer
// cores than readers measures time-slicing, not parallel speedup — readers
// never block each other, but they still share the silicon. A negative
// reader count or churn rate, a non-positive duration or an empty client
// list is an error.
func Stress(svc *Service, clients []graph.NodeID, readers, churnRate int, d time.Duration) (StressResult, error) {
	switch {
	case readers < 0:
		return StressResult{}, fmt.Errorf("strategysvc: stress reader count %d is negative", readers)
	case churnRate < 0:
		return StressResult{}, fmt.Errorf("strategysvc: stress churn rate %d is negative", churnRate)
	case d <= 0:
		return StressResult{}, fmt.Errorf("strategysvc: stress duration %v is not positive", d)
	case len(clients) == 0:
		return StressResult{}, errors.New("strategysvc: stress needs at least one client")
	}
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	if churnRate > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			DriveChurn(svc, clients, churnRate, stop)
		}()
	}

	hists := make([]Hist, readers)
	var queries atomic.Uint64
	var readerWG sync.WaitGroup
	begin := time.Now()
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(h *Hist, seed uint64) {
			defer readerWG.Done()
			r := rng.New(seed)
			var n, nils uint64
			// Check the stop flag every 1024 queries, not every query.
			for {
				select {
				case <-stop:
					queries.Add(n)
					// Departed members legitimately answer nil; the sink
					// keeps the Get from being elided.
					stressSink.Add(nils)
					return
				default:
				}
				for q := 0; q < 1024; q++ {
					c := clients[r.Intn(len(clients))]
					t0 := time.Now()
					st := svc.Get(c)
					h.Record(time.Since(t0).Nanoseconds())
					if st == nil {
						nils++
					}
					n++
				}
			}
		}(&hists[g], uint64(g)+7)
	}

	timer := time.NewTimer(d)
	<-timer.C
	close(stop)
	readerWG.Wait()
	elapsed := time.Since(begin)
	churnWG.Wait()

	var merged Hist
	for i := range hists {
		merged.Merge(&hists[i])
	}
	snap := svc.Snapshot()
	return StressResult{
		Queries: queries.Load(),
		Elapsed: elapsed,
		P50:     merged.Quantile(0.50),
		P99:     merged.Quantile(0.99),
		Stats:   svc.Stats(),
		Version: snap.Version,
		Epoch:   snap.Epoch,
	}, nil
}
