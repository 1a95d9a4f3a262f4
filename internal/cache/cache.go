// Package cache provides the data loader's software caches: the paper's
// MinIO cache (§4.1) and the cluster-wide partitioned cache used in
// distributed training (§4.2).
package cache

import (
	"fmt"

	"datastall/internal/dataset"
)

// SumUsedBytes totals occupancy across a slice of caches — any element
// type with a UsedBytes method (per-server cache slices in the fetchers
// report aggregate occupancy through this).
func SumUsedBytes[C interface{ UsedBytes() float64 }](caches []C) float64 {
	t := 0.0
	for _, c := range caches {
		t += c.UsedBytes()
	}
	return t
}

// MinIO is the paper's DNN-aware software cache (§4.1): items are inserted
// until capacity is reached and then *never replaced*. Because every item in
// a DNN epoch is accessed exactly once with equal probability, what matters
// is not which items are cached but that cached items are never evicted
// before use; MinIO therefore delivers exactly (capacity/dataset) hits per
// epoch — the thrashing-free minimum disk I/O.
//
// ItemIDs are dense small integers (0..NumItems-1), so residency is a
// []uint8 indexed directly by ID instead of a map: Lookup is one
// bounds-checked load — no hashing, no bucket chasing, and zero allocations
// in steady state (map lookups dominated the old Lookup profile). The
// slice grows on demand; pre-size it with NewMinIOSized when the dataset
// size is known. Negative IDs are never resident and never cached.
type MinIO struct {
	capBytes  float64
	usedBytes float64
	present   []uint8
	count     int

	hits, misses int64
	rejected     int64 // inserts refused because the cache was full
}

// NewMinIO returns an empty MinIO cache with the given byte capacity.
func NewMinIO(capBytes float64) *MinIO {
	return &MinIO{capBytes: capBytes}
}

// NewMinIOSized returns an empty MinIO cache with its residency slice
// pre-sized for numItems dense IDs, so inserts never reallocate.
func NewMinIOSized(capBytes float64, numItems int) *MinIO {
	m := NewMinIO(capBytes)
	if numItems > 0 {
		m.present = make([]uint8, numItems)
	}
	return m
}

// Lookup implements Cache.
func (m *MinIO) Lookup(id dataset.ItemID) bool {
	if i := int(id); uint(i) < uint(len(m.present)) && m.present[i] != 0 {
		m.hits++
		return true
	}
	m.misses++
	return false
}

// Insert implements Cache: first-come-first-cached, never evict.
func (m *MinIO) Insert(id dataset.ItemID, bytes float64) {
	i := int(id)
	if i < 0 {
		return
	}
	if i < len(m.present) && m.present[i] != 0 {
		return
	}
	if m.usedBytes+bytes > m.capBytes {
		m.rejected++
		return
	}
	if i >= len(m.present) {
		m.grow(i + 1)
	}
	m.present[i] = 1
	m.count++
	m.usedBytes += bytes
}

// grow extends the residency slice to at least n entries (amortized
// doubling, so ad-hoc IDs stay cheap when the cache wasn't pre-sized).
func (m *MinIO) grow(n int) {
	if n <= cap(m.present) {
		m.present = m.present[:n]
		return
	}
	newCap := 2 * cap(m.present)
	if newCap < n {
		newCap = n
	}
	if newCap < 64 {
		newCap = 64
	}
	np := make([]uint8, n, newCap)
	copy(np, m.present)
	m.present = np
}

// Contains implements Cache.
func (m *MinIO) Contains(id dataset.ItemID) bool {
	i := int(id)
	return uint(i) < uint(len(m.present)) && m.present[i] != 0
}

// UsedBytes implements Cache.
func (m *MinIO) UsedBytes() float64 { return m.usedBytes }

// CapBytes implements Cache.
func (m *MinIO) CapBytes() float64 { return m.capBytes }

// Hits implements Cache.
func (m *MinIO) Hits() int64 { return m.hits }

// Misses implements Cache.
func (m *MinIO) Misses() int64 { return m.misses }

// Rejected returns inserts refused because the cache was full.
func (m *MinIO) Rejected() int64 { return m.rejected }

// Len returns the number of cached items.
func (m *MinIO) Len() int { return m.count }

// ResetStats implements Cache.
func (m *MinIO) ResetStats() { m.hits, m.misses, m.rejected = 0, 0, 0 }

// HitRate returns hits/(hits+misses).
func (m *MinIO) HitRate() float64 {
	t := m.hits + m.misses
	if t == 0 {
		return 0
	}
	return float64(m.hits) / float64(t)
}

// Location classifies where a partitioned-cache lookup was satisfied.
type Location int

// Lookup outcomes for the partitioned cache.
const (
	// Miss: the item is cached nowhere; fetch from local storage.
	Miss Location = iota
	// LocalHit: resident in the requesting server's MinIO cache.
	LocalHit
	// RemoteHit: resident in another server's MinIO cache; fetch over TCP.
	RemoteHit
)

// String returns the location name.
func (l Location) String() string {
	switch l {
	case LocalHit:
		return "local"
	case RemoteHit:
		return "remote"
	default:
		return "miss"
	}
}

// Partitioned coordinates the MinIO caches of the servers in one distributed
// training job (§4.2). The dataset is statically sharded across servers;
// each server populates its cache only with items of its own shard, and a
// metadata map routes lookups for items cached elsewhere to the owning
// server so they are fetched from remote DRAM instead of local storage.
type Partitioned struct {
	caches []*MinIO
	owner  []int32 // item -> owning server

	localHits, remoteHits, misses []int64
}

// NewPartitioned builds the partitioned cache for nServers over d. Each
// server gets capBytes of MinIO cache; shards are random, disjoint and
// near-equal (load balancing, §5.5).
func NewPartitioned(d *dataset.Dataset, nServers int, capBytes float64, seed int64) *Partitioned {
	p := &Partitioned{
		caches:     make([]*MinIO, nServers),
		owner:      make([]int32, d.NumItems),
		localHits:  make([]int64, nServers),
		remoteHits: make([]int64, nServers),
		misses:     make([]int64, nServers),
	}
	for i := range p.caches {
		p.caches[i] = NewMinIOSized(capBytes, d.NumItems)
	}
	shards := dataset.SplitRandom(d, nServers, seed)
	for s, sh := range shards {
		for _, id := range sh.Items {
			p.owner[id] = int32(s)
		}
	}
	return p
}

// Owner returns the server that owns (may cache) item id.
func (p *Partitioned) Owner(id dataset.ItemID) int { return int(p.owner[id]) }

// OwnerShards returns the static per-server owner shards in ascending item
// order — the epoch-0 cache-population orders (§4.2).
func (p *Partitioned) OwnerShards() []dataset.Shard {
	return ownerShardsOf(p.owner, len(p.caches))
}

// ownerShardsOf groups items by owning server, ascending by item ID: the
// epoch-0 population orders.
func ownerShardsOf(owner []int32, nServers int) []dataset.Shard {
	shards := make([]dataset.Shard, nServers)
	for id, o := range owner {
		shards[o].Items = append(shards[o].Items, dataset.ItemID(id))
	}
	return shards
}

// Server returns server s's local MinIO cache.
func (p *Partitioned) Server(s int) *MinIO { return p.caches[s] }

// Lookup classifies a fetch of id by server s. For a RemoteHit the second
// result is the serving server.
func (p *Partitioned) Lookup(s int, id dataset.ItemID) (Location, int) {
	if p.caches[s].Lookup(id) {
		p.localHits[s]++
		return LocalHit, s
	}
	o := int(p.owner[id])
	if o != s && p.caches[o].Contains(id) {
		p.remoteHits[s]++
		return RemoteHit, o
	}
	p.misses[s]++
	return Miss, -1
}

// Insert offers id (fetched from storage by server s) to the cache. Only the
// owning server caches it, and only if s is the owner — a non-owner that had
// to fall back to storage does not pollute its shard budget (§4.2: each
// server populates its cache with items in the shard assigned to it).
func (p *Partitioned) Insert(s int, id dataset.ItemID, bytes float64) {
	if int(p.owner[id]) != s {
		return
	}
	p.caches[s].Insert(id, bytes)
}

// Stats returns (local, remote, miss) counters for server s.
func (p *Partitioned) Stats(s int) (local, remote, miss int64) {
	return p.localHits[s], p.remoteHits[s], p.misses[s]
}

// ResetStats clears all per-server counters (after the warmup epoch).
func (p *Partitioned) ResetStats() {
	for i := range p.caches {
		p.caches[i].ResetStats()
		p.localHits[i], p.remoteHits[i], p.misses[i] = 0, 0, 0
	}
}

// AggregateUsedBytes returns cached bytes across all servers.
func (p *Partitioned) AggregateUsedBytes() float64 {
	t := 0.0
	for _, c := range p.caches {
		t += c.UsedBytes()
	}
	return t
}

// Validate checks internal invariants (each item owned by exactly one valid
// server); used by tests and the simulator's self-checks.
func (p *Partitioned) Validate() error {
	for id, o := range p.owner {
		if int(o) < 0 || int(o) >= len(p.caches) {
			return fmt.Errorf("cache: item %d has invalid owner %d", id, o)
		}
	}
	return nil
}
