package coop

import (
	"math/bits"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// FuzzCoopDecode throws exact per-packet loss patterns, stream lengths and
// adversarial mutation intensities at full COOP runs with the strict
// invariant oracle on. The stream is two full blocks plus a tail block of
// every length from 1 to blockK. The loss mask drives a deterministic
// outage window around each marked packet's access-link traversal at the
// farthest client, so the fuzzer explores the whole burst spectrum —
// isolated losses, bursts within and beyond R, whole blocks,
// block-boundary straddles, short tail blocks. Whatever the pattern, the
// run must terminate, recover every loss, and keep the coded books clean
// (the oracle panics mid-run on any safety divergence; rank and count
// conservation are verified per decode).
func FuzzCoopDecode(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint64(0b111100), 0.0)
	f.Add(uint64(2), uint8(2), uint64(0xdeadbeef), 0.6)
	f.Add(uint64(3), uint8(0), ^uint64(0), 1.0)
	f.Add(uint64(4), uint8(4), uint64(1)<<16, 0.3)
	f.Fuzz(func(t *testing.T, seed uint64, tail uint8, lossMask uint64, intensity float64) {
		packets := 2*blockK + int(tail%blockK) + 1
		topo, err := topology.Chain(3, 1, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		tree := mtree.MustBuild(topo)
		c := topo.Clients[0] // the tail client, 4 hops from the source
		link := tree.ParentLink[c]
		e := New()
		intensity = min(intensity, 1) // the adversarial sweep's range
		cfg := protocol.Config{
			Packets: packets, Interval: 10,
			Fault: &fault.Schedule{
				Mutation: fault.MutationFromIntensity(intensity, float64(packets)*10),
			},
		}
		s, err := protocol.NewSession(topo, e, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Per-link fates are sampled at each packet's send instant
		// (10·i), so the window [10·i−0.5, 10·i+0.5] kills exactly that
		// packet at exactly that client. Recovery traffic stays lossless
		// (the default), so the loss pattern is precisely lossMask.
		want := 0
		for i := 0; i < packets; i++ {
			if lossMask&(1<<uint(i)) == 0 {
				continue
			}
			want++
			at := 10 * float64(i)
			if i == 0 {
				topo.Loss[link] = 1 // packet 0 is sent at t=0
			} else {
				s.Eng.Schedule(at-0.5, func() { topo.Loss[link] = 1 })
			}
			s.Eng.Schedule(at+0.5, func() { topo.Loss[link] = 0 })
		}
		res := s.Run()
		if !res.Complete {
			t.Fatalf("packets=%d mask=%x: run hit the event cap", packets, lossMask)
		}
		if int(res.Stats.Losses) != want {
			t.Fatalf("packets=%d mask=%x: %d losses, mask wants %d (mask=%d bits in range)",
				packets, lossMask, res.Stats.Losses, want, bits.OnesCount64(lossMask))
		}
		if res.Stats.Unrecovered != 0 {
			t.Fatalf("packets=%d mask=%x: %d unrecovered", packets, lossMask, res.Stats.Unrecovered)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("packets=%d mask=%x: oracle violations %v", packets, lossMask, res.Violations)
		}
		if e.PendingRecoveries() != 0 {
			t.Fatalf("packets=%d mask=%x: dangling block recoveries", packets, lossMask)
		}
	})
}
