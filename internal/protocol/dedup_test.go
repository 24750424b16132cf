package protocol

import (
	"testing"

	"rmcast/internal/graph"
)

func TestDedupCacheWindow(t *testing.T) {
	d := NewDedupCache(16)
	if d.Seen(1, 2, 5, 100, 10) {
		t.Fatal("first observation reported as duplicate")
	}
	if !d.Seen(1, 2, 5, 105, 10) {
		t.Fatal("repeat inside the window not reported")
	}
	// A hit must NOT refresh the entry: the window is anchored at the
	// first copy, so a steady duplicate stream cannot starve retries.
	if !d.Seen(1, 2, 5, 109, 10) {
		t.Fatal("third copy inside the original window not reported")
	}
	if d.Seen(1, 2, 5, 111, 10) {
		t.Fatal("legitimate retry outside the window reported as duplicate")
	}
	// The retry re-anchored the window.
	if !d.Seen(1, 2, 5, 112, 10) {
		t.Fatal("duplicate of the retry not reported")
	}
}

func TestDedupCacheKeysIndependent(t *testing.T) {
	d := NewDedupCache(16)
	d.Seen(1, 2, 5, 100, 10)
	if d.Seen(1, 2, 6, 100, 10) || d.Seen(1, 3, 5, 100, 10) || d.Seen(2, 2, 5, 100, 10) {
		t.Fatal("distinct keys collided")
	}
}

func TestDedupCacheBound(t *testing.T) {
	const cap = 8
	d := NewDedupCache(cap)
	for i := 0; i < 10*cap; i++ {
		d.Seen(graph.NodeID(i), 0, i, float64(i), 1000)
		if d.Len() > d.Cap() {
			t.Fatalf("cache exceeded its bound: %d > %d", d.Len(), d.Cap())
		}
	}
	if d.Len() != cap {
		t.Fatalf("len %d, want full cache %d", d.Len(), cap)
	}
	// FIFO eviction: the oldest key was overwritten, so its duplicate is
	// re-admitted (re-served, never lost).
	if d.Seen(0, 0, 0, float64(10*cap), 1e9) {
		t.Fatal("evicted key still reported as duplicate")
	}
	// The newest key survived.
	if !d.Seen(graph.NodeID(10*cap-1), 0, 10*cap-1, float64(10*cap), 1e9) {
		t.Fatal("resident key not reported as duplicate")
	}
}

func TestDedupCacheMinCapacity(t *testing.T) {
	d := NewDedupCache(0)
	if d.Cap() != 1 {
		t.Fatalf("cap %d, want minimum 1", d.Cap())
	}
	d.Seen(1, 1, 1, 0, 10)
	d.Seen(2, 2, 2, 0, 10)
	if d.Len() != 1 {
		t.Fatalf("len %d, want 1", d.Len())
	}
}

// refDedup is the map-and-ring reference model of DedupCache: the same
// FIFO slot ring, indexed by a Go map.
type refDedup struct {
	keys []dedupKey
	at   map[dedupKey]float64
	head int
}

func newRefDedup(capacity int) *refDedup {
	return &refDedup{keys: make([]dedupKey, 0, capacity), at: map[dedupKey]float64{}}
}

func (r *refDedup) seen(k dedupKey, now, window float64) bool {
	if at, ok := r.at[k]; ok {
		if now-at < window {
			return true
		}
		r.at[k] = now
		return false
	}
	if len(r.keys) < cap(r.keys) {
		r.keys = append(r.keys, k)
	} else {
		delete(r.at, r.keys[r.head])
		r.keys[r.head] = k
	}
	r.at[k] = now
	r.head = (r.head + 1) % cap(r.keys)
	return false
}

// FuzzDedupCache drives a cache and the reference model with byte-decoded
// Seen calls over a small key space, so that probe collisions, wraps and
// evictions out of the middle of a probe cluster all happen, and compares
// every answer and Len.
func FuzzDedupCache(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2})
	f.Add(uint8(0), []byte{7, 7, 7, 200, 7})
	f.Add(uint8(15), []byte("a duplicate stream, then a retry, then eviction"))
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		capacity := int(capByte%16) + 1
		d, ref := NewDedupCache(capacity), newRefDedup(capacity)
		now := 0.0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			// Keys: 4 hosts × 2 peers × 4 seqs, some negative (corrupted).
			k := dedupKey{host: graph.NodeID(op & 3), peer: graph.NodeID(op >> 2 & 1),
				seq: int(op>>3&3) - 1}
			now += float64(arg & 15)
			window := float64(arg >> 4)
			got, want := d.Seen(k.host, k.peer, k.seq, now, window), ref.seen(k, now, window)
			if got != want {
				t.Fatalf("op %d: Seen(%v, now %v, window %v) = %v, reference says %v",
					i/2, k, now, window, got, want)
			}
			if d.Len() != len(ref.at) {
				t.Fatalf("op %d: Len %d, reference holds %d", i/2, d.Len(), len(ref.at))
			}
		}
	})
}

// BenchmarkDedupCache measures the per-packet cost the hardening layer adds
// to every control delivery: one Seen call on a warm, full cache. The bench
// target in ISSUE terms: the adversarial hardening must stay under 5% of a
// control packet's processing budget, and this path is the hot part.
func BenchmarkDedupCache(b *testing.B) {
	d := NewDedupCache(4096)
	for i := 0; i < 4096; i++ {
		d.Seen(graph.NodeID(i%64), graph.NodeID(i%128), i, float64(i), 50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seen(graph.NodeID(i%64), graph.NodeID(i%128), i%4096, float64(4096+i), 50)
	}
}
