package mtree

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

func partitionFixture(t *testing.T, clients int, seed uint64) *Tree {
	t.Helper()
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(clients), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(net)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPartitionInvariants checks the structural contract of PartitionTree on
// generated trees at several shard counts: the root anchors shard 0, hosts
// ride with their access router, shard indices form contiguous nondecreasing
// bands along the preorder, client weights sum and balance, and the
// lookahead is a positive finite cut-link delay.
func TestPartitionInvariants(t *testing.T) {
	for _, n := range []int{20, 64, 257} {
		tr := partitionFixture(t, n, uint64(1000+n))
		for _, k := range []int{2, 3, 4, 8} {
			p := PartitionTree(tr, k)
			if p.K != k {
				t.Fatalf("n=%d k=%d: got K=%d", n, k, p.K)
			}
			if p.ShardOf[tr.Root] != 0 {
				t.Errorf("n=%d k=%d: root on shard %d, want 0", n, k, p.ShardOf[tr.Root])
			}
			// Hosts inherit their tree parent's shard: access links are
			// never cut.
			for _, u := range tr.Order {
				if !tr.Net.IsClient(u) && u != tr.Net.Source {
					continue
				}
				if par := tr.Parent[u]; par != graph.None && p.ShardOf[u] != p.ShardOf[par] {
					t.Errorf("n=%d k=%d: host %d on shard %d, parent %d on shard %d",
						n, k, u, p.ShardOf[u], par, p.ShardOf[par])
				}
			}
			// Router shard indices are nondecreasing along the preorder
			// (contiguous bands).
			last := int32(0)
			for _, u := range tr.Order {
				if tr.Net.IsClient(u) || u == tr.Net.Source {
					continue
				}
				sh := p.ShardOf[u]
				if sh < last {
					t.Fatalf("n=%d k=%d: router %d on shard %d after shard %d in preorder",
						n, k, u, sh, last)
				}
				if sh >= int32(k) {
					t.Fatalf("n=%d k=%d: router %d on shard %d out of range", n, k, u, sh)
				}
				last = sh
			}
			// Weights count every client exactly once and match ShardOf.
			sum := 0
			for _, w := range p.Weights {
				sum += w
			}
			if sum != len(tr.Clients) {
				t.Errorf("n=%d k=%d: weights sum %d, want %d clients", n, k, sum, len(tr.Clients))
			}
			counts := make([]int, k)
			for _, c := range tr.Clients {
				counts[p.ShardOf[c]]++
			}
			for i := range counts {
				if counts[i] != p.Weights[i] {
					t.Errorf("n=%d k=%d shard %d: weight %d, counted %d",
						n, k, i, p.Weights[i], counts[i])
				}
			}
			// Lookahead: positive, finite, and equal to the cheapest
			// cross-shard link delay.
			if !(p.Lookahead > 0) || math.IsInf(p.Lookahead, 1) {
				t.Fatalf("n=%d k=%d: lookahead %v, want positive finite", n, k, p.Lookahead)
			}
			min := math.Inf(1)
			for id := 0; id < tr.Net.G.NumEdges(); id++ {
				e := tr.Net.G.Edge(graph.EdgeID(id))
				if p.ShardOf[e.A] != p.ShardOf[e.B] && tr.Net.Delay[id] < min {
					min = tr.Net.Delay[id]
				}
			}
			if p.Lookahead != min {
				t.Errorf("n=%d k=%d: lookahead %v, want min cut delay %v", n, k, p.Lookahead, min)
			}
		}
	}
}

// TestPartitionSingleShard pins the degenerate cases: k<=1 and k clamped to
// the client count produce a shard-0-only partition with infinite lookahead
// (k==1) and never more shards than clients.
func TestPartitionSingleShard(t *testing.T) {
	tr := partitionFixture(t, 12, 42)
	for _, k := range []int{0, 1} {
		p := PartitionTree(tr, k)
		if p.K != 1 {
			t.Fatalf("k=%d: got K=%d, want 1", k, p.K)
		}
		if !math.IsInf(p.Lookahead, 1) {
			t.Errorf("k=%d: lookahead %v, want +Inf", k, p.Lookahead)
		}
		for u, sh := range p.ShardOf {
			if sh != 0 {
				t.Fatalf("k=%d: node %d on shard %d", k, u, sh)
			}
		}
		if p.Weights[0] != len(tr.Clients) {
			t.Errorf("k=%d: weight %d, want %d", k, p.Weights[0], len(tr.Clients))
		}
	}
	if p := PartitionTree(tr, 100); p.K > len(tr.Clients) {
		t.Errorf("k=100 not clamped: K=%d > %d clients", p.K, len(tr.Clients))
	}
}

// TestPartitionBalance checks that client weights stay within a small factor
// of ideal on a large generated tree — the band construction bounds the
// imbalance by one router's attachment count.
func TestPartitionBalance(t *testing.T) {
	tr := partitionFixture(t, 1024, 7)
	for _, k := range []int{2, 4, 8} {
		p := PartitionTree(tr, k)
		ideal := float64(len(tr.Clients)) / float64(k)
		for i, w := range p.Weights {
			if float64(w) > 2*ideal+8 || float64(w) < ideal/4 {
				t.Errorf("k=%d shard %d: weight %d far from ideal %.1f (weights %v)",
					k, i, w, ideal, p.Weights)
			}
		}
	}
}

// TestPartitionDomains checks the domain-sizing wrapper: the domain count is
// ⌈clients/target⌉ (clamped by PartitionTree), every client lands in exactly
// one domain, and — the worker-invariance anchor — the layout is a pure
// function of (tree, target), so repeated calls agree element for element.
func TestPartitionDomains(t *testing.T) {
	tr := partitionFixture(t, 300, 77)
	total := len(tr.Clients)
	for _, target := range []int{1, 7, 32, 64, 150, 299, 300, 1000} {
		p := PartitionDomains(tr, target)
		wantK := (total + target - 1) / target
		if wantK > total {
			wantK = total
		}
		if p.K != wantK {
			t.Fatalf("target=%d: K=%d, want %d", target, p.K, wantK)
		}
		counts := make([]int, p.K)
		for _, c := range tr.Clients {
			d := p.ShardOf[c]
			if d < 0 || int(d) >= p.K {
				t.Fatalf("target=%d: client %d in out-of-range domain %d", target, c, d)
			}
			counts[d]++
		}
		sum := 0
		for i, got := range counts {
			if got != p.Weights[i] {
				t.Fatalf("target=%d domain %d: weight %d, counted %d", target, i, p.Weights[i], got)
			}
			sum += got
		}
		if sum != total {
			t.Fatalf("target=%d: clients counted %d, want %d", target, sum, total)
		}
		q := PartitionDomains(tr, target)
		if q.K != p.K || q.Lookahead != p.Lookahead {
			t.Fatalf("target=%d: repeated partition disagrees", target)
		}
		for i := range p.ShardOf {
			if p.ShardOf[i] != q.ShardOf[i] {
				t.Fatalf("target=%d: repeated partition maps node %d to %d then %d",
					target, i, p.ShardOf[i], q.ShardOf[i])
			}
		}
	}
	if p := PartitionDomains(tr, 0); p.K != total {
		t.Fatalf("target=0 should clamp to one-client domains: K=%d", p.K)
	}
}
