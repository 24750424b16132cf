package protocol

import "rmcast/internal/graph"

// DedupCache is the engines' bounded duplicate-suppression memory: a
// fixed-capacity record of (host, peer, seq) observations with a last-seen
// time, so an engine can drop a duplicated control packet that arrives
// within a protocol-derived window of its first copy while still honouring
// legitimate retries, which are always spaced wider than the window.
//
// The memory bound is structural, not amortised: a fixed slot ring plus an
// open-addressed index over it (linear probing, a power-of-two table at
// least twice the ring, backward-shift deletion) that never holds more
// entries than the ring. When the ring wraps, the oldest insertion is
// overwritten (FIFO), which can only cause a duplicate to be re-processed —
// wasted bandwidth, never a safety or liveness loss. The invariant oracle
// bound-checks Len against Cap at the end of every run.
//
// Like the rest of the simulator, a cache belongs to a single run.
type DedupCache struct {
	slots []dedupSlot
	// index maps a key's probe sequence to its slot: 0 is an empty
	// position, s > 0 names slots[s-1].
	index []int32
	head  int
	live  int
}

type dedupKey struct {
	host, peer graph.NodeID
	seq        int
}

// home returns the key's first probe position in an index of size mask+1.
func (k dedupKey) home(mask int) int {
	h := uint64(uint32(k.host))*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.peer))*0xc2b2ae3d27d4eb4f ^
		uint64(k.seq)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h) & mask
}

type dedupSlot struct {
	key  dedupKey
	at   float64
	used bool
}

// NewDedupCache returns a cache bounded to capacity entries (minimum 1).
func NewDedupCache(capacity int) *DedupCache {
	if capacity < 1 {
		capacity = 1
	}
	size := 2
	for size < 2*capacity {
		size <<= 1
	}
	return &DedupCache{
		slots: make([]dedupSlot, capacity),
		index: make([]int32, size),
	}
}

// Seen records the observation (host, peer, seq) at time now and reports
// whether the same key was already observed within window ms — i.e. whether
// this packet is a duplicate the caller should drop. An observation outside
// the window refreshes the entry's time (it is a legitimate retry and opens
// a new suppression window); a hit inside the window does NOT refresh it,
// so a steady duplicate stream cannot starve legitimate retries forever.
func (d *DedupCache) Seen(host, peer graph.NodeID, seq int, now, window float64) bool {
	k := dedupKey{host: host, peer: peer, seq: seq}
	mask := len(d.index) - 1
	for i := k.home(mask); d.index[i] != 0; i = (i + 1) & mask {
		if s := &d.slots[d.index[i]-1]; s.key == k {
			if now-s.at < window {
				return true
			}
			s.at = now
			return false
		}
	}
	s := &d.slots[d.head]
	if s.used {
		d.unlink(s.key)
	} else {
		d.live++
	}
	*s = dedupSlot{key: k, at: now, used: true}
	i := k.home(mask)
	for d.index[i] != 0 {
		i = (i + 1) & mask
	}
	d.index[i] = int32(d.head + 1)
	d.head++
	if d.head == len(d.slots) {
		d.head = 0
	}
	return false
}

// unlink removes the resident key k from the index, shifting the rest of
// its probe cluster back so that every entry stays reachable from its home.
func (d *DedupCache) unlink(k dedupKey) {
	mask := len(d.index) - 1
	i := k.home(mask)
	for d.slots[d.index[i]-1].key != k {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		s := d.index[j]
		if s == 0 {
			break
		}
		// An entry whose home lies cyclically in (i, j] is reachable
		// without crossing the hole; any other one moves into it.
		h := d.slots[s-1].key.home(mask)
		if (i <= j && i < h && h <= j) || (i > j && (i < h || h <= j)) {
			continue
		}
		d.index[i] = s
		i = j
	}
	d.index[i] = 0
}

// Len returns the live entry count.
func (d *DedupCache) Len() int { return d.live }

// Cap returns the structural bound.
func (d *DedupCache) Cap() int { return len(d.slots) }

// DedupAudited is optionally implemented by engines whose duplicate-
// suppression caches the invariant oracle should bound-check at the end of
// a run.
type DedupAudited interface {
	DedupCaches() []*DedupCache
}
