package cache

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"datastall/internal/dataset"
	"datastall/internal/pagecache"
)

// residentBytes sums the bytes actually stored in the shard maps (bypassing
// the per-stripe used counters), for reconciliation checks.
func (c *ShardedMinIO) residentBytes() float64 {
	t := 0.0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, b := range sh.items {
			t += b
		}
		sh.mu.RUnlock()
	}
	return t
}

// quotaSum totals the per-stripe quotas in budget units; borrowing moves
// quota between stripes but must conserve the total at exactly capUnits.
func (c *ShardedMinIO) quotaSum() int64 {
	t := int64(0)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		t += sh.quota
		sh.mu.RUnlock()
	}
	return t
}

// TestShardPadding pins minioShard at exactly two cache lines: a field
// added without re-sizing the padding would make adjacent stripes share a
// line and silently reintroduce the false sharing the padding removes.
func TestShardPadding(t *testing.T) {
	if got := unsafe.Sizeof(minioShard{}); got != 128 {
		t.Fatalf("minioShard = %d bytes, want 128 (adjust the padding)", got)
	}
}

// stripeInvariant checks used <= quota on every stripe.
func (c *ShardedMinIO) stripeInvariant(t *testing.T) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		u, q := sh.used, sh.quota
		sh.mu.RUnlock()
		if u > q {
			t.Fatalf("stripe %d: used %v > quota %v", i, u, q)
		}
	}
}

// TestShardedMinIOMatchesReference replays one random op sequence through
// ShardedMinIO and the single-threaded MinIO reference model: identical
// hits, misses, used bytes, and residency at every step.
func TestShardedMinIOMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		ref := NewMinIO(1000)
		sh := NewShardedMinIO(1000, shards)
		rng := rand.New(rand.NewSource(7))
		for op := 0; op < 20000; op++ {
			id := dataset.ItemID(rng.Intn(300))
			if rng.Intn(2) == 0 {
				if got, want := sh.Lookup(id), ref.Lookup(id); got != want {
					t.Fatalf("shards=%d op %d: Lookup(%d) = %v, reference %v", shards, op, id, got, want)
				}
			} else {
				bytes := float64(1 + rng.Intn(20))
				ref.Insert(id, bytes)
				sh.Insert(id, bytes)
			}
			if sh.UsedBytes() != ref.UsedBytes() {
				t.Fatalf("shards=%d op %d: UsedBytes %v != reference %v", shards, op, sh.UsedBytes(), ref.UsedBytes())
			}
		}
		if sh.Hits() != ref.Hits() || sh.Misses() != ref.Misses() {
			t.Fatalf("shards=%d: hits/misses %d/%d != reference %d/%d",
				shards, sh.Hits(), sh.Misses(), ref.Hits(), ref.Misses())
		}
		if sh.Rejected() != ref.Rejected() {
			t.Fatalf("shards=%d: rejected %d != reference %d", shards, sh.Rejected(), ref.Rejected())
		}
		if sh.Len() != ref.Len() {
			t.Fatalf("shards=%d: len %d != reference %d", shards, sh.Len(), ref.Len())
		}
	}
}

// TestShardedMinIORace hammers one cache from many goroutines and checks the
// two safety invariants the concurrent backend depends on, continuously and
// at quiescence: UsedBytes never exceeds CapBytes, and hits+misses accounts
// for every Lookup exactly. Run under -race this is the data-race battery
// for the lock-striping and the CAS budget.
func TestShardedMinIORace(t *testing.T) {
	const (
		goroutines = 16
		opsPerG    = 5000
		capBytes   = 4096
		idSpace    = 1024
	)
	c := NewShardedMinIO(capBytes, 16)
	var lookups atomic.Int64
	var stop atomic.Bool

	// Invariant watcher: observes UsedBytes at arbitrary interleavings.
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for !stop.Load() {
			if u := c.UsedBytes(); u > c.CapBytes() {
				t.Errorf("UsedBytes %v > CapBytes %v", u, c.CapBytes())
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPerG; op++ {
				id := dataset.ItemID(rng.Intn(idSpace))
				switch rng.Intn(3) {
				case 0:
					c.Lookup(id)
					lookups.Add(1)
				case 1:
					c.Insert(id, float64(1+rng.Intn(16)))
				default:
					c.Contains(id)
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	stop.Store(true)
	watcher.Wait()

	if got, want := c.Hits()+c.Misses(), lookups.Load(); got != want {
		t.Fatalf("hits+misses = %d, want exactly %d lookups", got, want)
	}
	if u := c.UsedBytes(); u > c.CapBytes() {
		t.Fatalf("UsedBytes %v > CapBytes %v at quiescence", u, c.CapBytes())
	}
	// At quiescence every reserved byte is resident: no budget leaked on
	// the duplicate-insert race path.
	if got, want := c.residentBytes(), c.UsedBytes(); got != want {
		t.Fatalf("resident bytes %v != reserved bytes %v (budget leak)", got, want)
	}
}

// TestShardedMinIOConcurrentEpoch drives a full disjoint epoch (every item
// once) from N workers: the cache must fill to exactly floor(cap/item) items
// regardless of scheduling, matching the single-threaded model.
func TestShardedMinIOConcurrentEpoch(t *testing.T) {
	const (
		items    = 4096
		itemSz   = 4.0
		capBytes = 1000 * itemSz
		workers  = 8
	)
	for _, shards := range []int{1, 8, 64} {
		c := NewShardedMinIO(capBytes, shards)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= items {
						return
					}
					id := dataset.ItemID(i)
					if !c.Lookup(id) {
						c.Insert(id, itemSz)
					}
				}
			}()
		}
		wg.Wait()
		if got := c.Len(); got != 1000 {
			t.Fatalf("shards=%d: cached %d items, want exactly floor(cap/item) = 1000", shards, got)
		}
		if got := c.UsedBytes(); got != capBytes {
			t.Fatalf("shards=%d: UsedBytes %v, want %v", shards, got, capBytes)
		}
		if h, m := c.Hits(), c.Misses(); h != 0 || m != items {
			t.Fatalf("shards=%d: warmup epoch hits/misses %d/%d, want 0/%d", shards, h, m, items)
		}
	}
}

// TestShardedQuotaConservation: after hammering (including the borrow slow
// path), the per-stripe quotas still sum to exactly CapBytes, every stripe
// respects used <= quota, and the resident bytes reconcile with the used
// counters — no budget leaked or minted by quota transfers.
func TestShardedQuotaConservation(t *testing.T) {
	const (
		items    = 4096
		itemSz   = 4.0
		capBytes = 1000 * itemSz
	)
	for _, shards := range []int{1, 8, 64} {
		c := NewShardedMinIO(capBytes, shards)
		if got := c.quotaSum(); got != c.capUnits {
			t.Fatalf("shards=%d: initial quota sum %v != capUnits %v", shards, got, c.capUnits)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 5000; op++ {
					id := dataset.ItemID(rng.Intn(items))
					if !c.Lookup(id) {
						c.Insert(id, itemSz)
					}
				}
			}(int64(w) + 1)
		}
		wg.Wait()
		if got := c.quotaSum(); got != c.capUnits {
			t.Fatalf("shards=%d: quota sum %v != capUnits %v after borrowing", shards, got, c.capUnits)
		}
		c.stripeInvariant(t)
		if got, want := c.residentBytes(), c.UsedBytes(); got != want {
			t.Fatalf("shards=%d: resident bytes %v != used bytes %v", shards, got, want)
		}
		if u := c.UsedBytes(); u > c.CapBytes() {
			t.Fatalf("shards=%d: UsedBytes %v > CapBytes %v", shards, u, c.CapBytes())
		}
	}
}

// TestShardedBorrowPath: a workload whose stripe occupancy is necessarily
// uneven (capacity == dataset bytes, so every stripe must hold exactly its
// hash share) exercises quota borrowing and still caches every item — the
// per-stripe split must never reject what the global budget can fund.
func TestShardedBorrowPath(t *testing.T) {
	const (
		items  = 4096
		itemSz = 4.0
	)
	for _, shards := range []int{8, 64} {
		c := NewShardedMinIO(items*itemSz, shards)
		for i := 0; i < items; i++ {
			c.Insert(dataset.ItemID(i), itemSz)
		}
		if got := c.Len(); got != items {
			t.Fatalf("shards=%d: cached %d items, want all %d (rejected %d)",
				shards, got, items, c.Rejected())
		}
		if got := c.UsedBytes(); got != items*itemSz {
			t.Fatalf("shards=%d: UsedBytes %v, want %v", shards, got, items*itemSz)
		}
		if c.Borrows() == 0 {
			t.Fatalf("shards=%d: expected the exact-fit workload to exercise the borrow path", shards)
		}
		if got := c.quotaSum(); got != c.capUnits {
			t.Fatalf("shards=%d: quota sum %v != capUnits %v", shards, got, c.capUnits)
		}
		c.stripeInvariant(t)
	}
}

// TestShardedFractionalSizesConserveBudget: item sizes that are not exactly
// representable in binary (0.1 bytes) must not let quota transfers mint or
// destroy budget — the integer fixed-point units make every transfer exact,
// so conservation and UsedBytes <= CapBytes hold unconditionally, and the
// cached count lands within one item of the float reference model (unit
// quantization rounds item charges up, never down).
func TestShardedFractionalSizesConserveBudget(t *testing.T) {
	const (
		items  = 2000
		itemSz = 0.1
		capB   = 100.0
	)
	for _, shards := range []int{8, 64} {
		c := NewShardedMinIO(capB, shards)
		ref := NewMinIO(capB)
		for i := 0; i < items; i++ {
			id := dataset.ItemID(i)
			c.Insert(id, itemSz)
			ref.Insert(id, itemSz)
		}
		if got := c.quotaSum(); got != c.capUnits {
			t.Fatalf("shards=%d: quota sum %v != capUnits %v (budget minted/destroyed)",
				shards, got, c.capUnits)
		}
		c.stripeInvariant(t)
		if u := c.UsedBytes(); u > c.CapBytes() {
			t.Fatalf("shards=%d: UsedBytes %v > CapBytes %v", shards, u, c.CapBytes())
		}
		if diff := c.Len() - ref.Len(); diff > 1 || diff < -1 {
			t.Fatalf("shards=%d: cached %d items, reference %d (quantization must cost at most one)",
				shards, c.Len(), ref.Len())
		}
	}
}

// TestShardedFullCacheFastReject: once a full sweep observes the budget
// exhausted, further inserts of anything at least that large reject on the
// fast path without taking the borrow mutex — a permanently full cache (the
// MinIO steady state) must not stampede the slow path every epoch.
func TestShardedFullCacheFastReject(t *testing.T) {
	const (
		items  = 1024
		itemSz = 4.0
	)
	c := NewShardedMinIO(items*itemSz, 16)
	for i := 0; i < items; i++ {
		c.Insert(dataset.ItemID(i), itemSz) // exact fit
	}
	c.Insert(dataset.ItemID(items), itemSz) // first overflow: sweeps, sets the ceiling
	base := c.Borrows()
	for i := 1; i <= 200; i++ {
		c.Insert(dataset.ItemID(items+i), itemSz)
	}
	if got := c.Borrows(); got != base {
		t.Fatalf("full-cache inserts took the borrow path %d more times, want 0", got-base)
	}
	if got := c.Rejected(); got != 201 {
		t.Fatalf("rejected %d, want 201", got)
	}
	if got := c.Len(); got != items {
		t.Fatalf("cached %d, want %d", got, items)
	}
}

// TestShardedPartitionedRace hammers the distributed cache from goroutines
// spread across servers; checks per-server classification accounting and the
// per-server byte budgets.
func TestShardedPartitionedRace(t *testing.T) {
	d := &dataset.Dataset{Name: "t", NumItems: 2048, TotalBytes: 2048 * 8}
	const nServers = 4
	p := NewShardedPartitioned(d, nServers, 200*8, 8, 42)

	var lookups [nServers]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s := int(seed) % nServers
			for op := 0; op < 4000; op++ {
				id := dataset.ItemID(rng.Intn(d.NumItems))
				loc, _ := p.Lookup(s, id)
				lookups[s].Add(1)
				if loc == Miss {
					p.Insert(s, id, d.Sizes().Bytes(id))
				}
			}
		}(int64(g))
	}
	wg.Wait()

	for s := 0; s < nServers; s++ {
		local, remote, miss := p.Stats(s)
		if got, want := local+remote+miss, lookups[s].Load(); got != want {
			t.Fatalf("server %d: local+remote+miss = %d, want exactly %d lookups", s, got, want)
		}
		c := p.Server(s)
		if c.UsedBytes() > c.CapBytes() {
			t.Fatalf("server %d: UsedBytes %v > CapBytes %v", s, c.UsedBytes(), c.CapBytes())
		}
	}
}

// TestLockedWrapsPageCache checks the big-lock adapter under concurrency:
// the page cache's recency lists must survive -race and respect capacity.
func TestLockedWrapsPageCache(t *testing.T) {
	inner := pagecache.New(pagecache.TwoList, 512, 99)
	c := NewLocked(inner)
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 3000; op++ {
				id := dataset.ItemID(rng.Intn(256))
				if !c.Lookup(id) {
					c.Insert(id, float64(1+rng.Intn(8)))
				}
				lookups.Add(1)
			}
		}(int64(g))
	}
	wg.Wait()
	if got, want := c.Hits()+c.Misses(), lookups.Load(); got != want {
		t.Fatalf("hits+misses = %d, want %d", got, want)
	}
	if c.UsedBytes() > c.CapBytes() {
		t.Fatalf("UsedBytes %v > CapBytes %v", c.UsedBytes(), c.CapBytes())
	}
}

// TestShardedMinIOZeroAndTinyCapacity: degenerate capacities must neither
// panic nor admit items they have no budget for.
func TestShardedMinIOZeroAndTinyCapacity(t *testing.T) {
	for _, capBytes := range []float64{0, 0.5, -10} {
		c := NewShardedMinIO(capBytes, 4)
		for i := 0; i < 100; i++ {
			id := dataset.ItemID(i)
			c.Lookup(id)
			c.Insert(id, 1)
		}
		if c.Len() != 0 {
			t.Fatalf("cap=%v: cached %d items, want 0", capBytes, c.Len())
		}
		if c.Rejected() != 100 {
			t.Fatalf("cap=%v: rejected %d, want 100", capBytes, c.Rejected())
		}
	}
}

// TestShardedMinIOShardRounding: shard counts round up to powers of two.
func TestShardedMinIOShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {9, 16}, {64, 64},
		// Absurd values clamp instead of overflowing the rounding loop or
		// allocating gigabytes of stripes.
		{MaxShards + 1, MaxShards}, {1 << 40, MaxShards}, {int(^uint(0) >> 1), MaxShards},
	} {
		if got := NewShardedMinIO(10, tc.in).NumShards(); got != tc.want {
			t.Errorf("NumShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
