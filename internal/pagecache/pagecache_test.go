package pagecache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datastall/internal/dataset"
)

// unit is the size model of the tests' unit-size items.
var unit = dataset.UniformSizes(1)

// varied is a catalog size model whose items spread ±60% around the mean,
// and avg its mean: a capacity of k*avg holds about k items.
var (
	varied = dataset.ImageNet1K.Sizes()
	avg    = dataset.ImageNet1K.AvgItemBytes()
)

func access(c *Cache, id dataset.ItemID) bool {
	if c.Lookup(id) {
		return true
	}
	c.Insert(id)
	return false
}

func TestLRUBasic(t *testing.T) {
	c := New(LRU, unit, 2, 1)
	access(c, 1)
	access(c, 2)
	if !c.Lookup(1) {
		t.Fatal("1 should hit")
	}
	access(c, 3) // evicts 2 (1 was just touched)
	if c.Lookup(2) {
		t.Fatal("2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("1 and 3 should be resident")
	}
}

func TestLRUScanIsPathological(t *testing.T) {
	// Cyclic scan over N items with capacity C < N: LRU gets zero hits
	// after warmup — the paper's TFRecord pathological case (§3.3.3).
	c := New(LRU, unit, 50, 1)
	n := 100
	for e := 0; e < 3; e++ {
		for i := 0; i < n; i++ {
			access(c, dataset.ItemID(i))
		}
	}
	c.ResetStats()
	for i := 0; i < n; i++ {
		access(c, dataset.ItemID(i))
	}
	if c.Hits() != 0 {
		t.Fatalf("LRU scan got %d hits, want 0", c.Hits())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for _, pol := range []Policy{LRU, TwoList, Random} {
		c := New(pol, varied, 33*avg, 1)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 10000; i++ {
			id := dataset.ItemID(rng.Intn(500))
			access(c, id)
			if c.UsedBytes() > c.CapBytes() {
				t.Fatalf("%v: used %v > cap %v", pol, c.UsedBytes(), c.CapBytes())
			}
		}
	}
}

func TestOversizeItemNotCached(t *testing.T) {
	c := New(LRU, dataset.UniformSizes(11), 10, 1)
	c.Insert(1)
	if c.Contains(1) || c.UsedBytes() != 0 {
		t.Fatal("oversize item cached")
	}
}

func TestInsertIdempotent(t *testing.T) {
	c := New(TwoList, dataset.UniformSizes(4), 10, 1)
	c.Insert(1)
	c.Insert(1)
	if c.UsedBytes() != 4 || c.Len() != 1 {
		t.Fatalf("double insert: used=%v len=%d", c.UsedBytes(), c.Len())
	}
}

// permEpochHitRate runs E epochs of uniform random permutation access over n
// unit-size items with capacity c*n and returns the steady-state hit rate.
func permEpochHitRate(pol Policy, n int, capFrac float64, epochs int) float64 {
	c := New(pol, unit, capFrac*float64(n), 3)
	rng := rand.New(rand.NewSource(4))
	for e := 0; e < epochs; e++ {
		if e == 1 {
			c.ResetStats() // first epoch is cold-cache warmup
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			access(c, dataset.ItemID(i))
		}
	}
	return c.HitRate()
}

func TestTwoListThrashesUnderPermutationAccess(t *testing.T) {
	// At 35% capacity an ideal cache yields 35% hits; the paper measures
	// the Linux page cache delivering ~15% (85% of the dataset fetched
	// per epoch, §3.3.1). TwoList must land well below ideal.
	h := permEpochHitRate(TwoList, 4000, 0.35, 4)
	if h >= 0.30 {
		t.Fatalf("TwoList hit rate %.2f, want thrashing (< 0.30)", h)
	}
	if h < 0.05 {
		t.Fatalf("TwoList hit rate %.2f, want some retention (> 0.05)", h)
	}
}

func TestTwoListAt65Percent(t *testing.T) {
	// Table 6: DALI-shuffle at 65% capacity delivered ~47% hits.
	h := permEpochHitRate(TwoList, 4000, 0.65, 4)
	if h < 0.28 || h > 0.60 {
		t.Fatalf("TwoList hit rate %.2f at 65%% cap, want ~0.30-0.50", h)
	}
}

func TestThrashingOrderingAcrossPolicies(t *testing.T) {
	// All OS policies must under-perform the capacity ratio under
	// per-epoch permutation access (the MinIO motivation).
	for _, pol := range []Policy{LRU, TwoList, Random} {
		h := permEpochHitRate(pol, 3000, 0.5, 4)
		if h >= 0.5 {
			t.Fatalf("%v: hit rate %.2f >= capacity ratio 0.5", pol, h)
		}
	}
}

func TestRandomPolicyScanHits(t *testing.T) {
	// Random replacement under cyclic scan follows the fixed point
	// h = exp(-(1-h)/c); at c=0.65 that's ~0.43.
	c := New(Random, unit, 0.65*3000, 5)
	n := 3000
	for e := 0; e < 6; e++ {
		if e == 2 {
			c.ResetStats()
		}
		for i := 0; i < n; i++ {
			access(c, dataset.ItemID(i))
		}
	}
	h := c.HitRate()
	if h < 0.30 || h > 0.55 {
		t.Fatalf("random-policy scan hit rate %.2f, want ~0.43", h)
	}
}

func TestEvictionCountsAndResetStats(t *testing.T) {
	c := New(LRU, unit, 2, 1)
	for i := 0; i < 5; i++ {
		access(c, dataset.ItemID(i))
	}
	if c.Evictions() != 3 {
		t.Fatalf("evictions = %d, want 3", c.Evictions())
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 || c.Evictions() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// Property: for any access sequence, used bytes never exceed capacity and
// the hit+miss count equals the number of lookups.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ids []uint8, polRaw uint8) bool {
		pol := Policy(int(polRaw) % 3)
		c := New(pol, varied, 10*avg, 9)
		lookups := 0
		for _, raw := range ids {
			id := dataset.ItemID(raw % 64)
			c.Lookup(id)
			lookups++
			c.Insert(id)
			if c.UsedBytes() > c.CapBytes() {
				return false
			}
		}
		return c.Hits()+c.Misses() == int64(lookups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Contains agrees with a shadow set of inserted-minus-evicted items.
func TestResidencyConsistencyProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		c := New(TwoList, unit, 15, 11)
		for _, raw := range ids {
			id := dataset.ItemID(raw % 32)
			access(c, id)
			// After an access the item must be resident (size 1 <= cap).
			if !c.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
