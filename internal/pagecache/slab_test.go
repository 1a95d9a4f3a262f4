package pagecache

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"datastall/internal/dataset"
	"datastall/internal/race"
)

// TestSlabMatchesReference replays long random op sequences through the
// frozen map+container/list reference model and two ID-indexed caches, one
// growing its slot array on demand and one pre-sized by NewSized: every
// policy must produce identical hits, misses, evictions, used and active
// bytes and residency at every step — the slot layout is a pure
// representation change, down to rng consumption. Items take their sizes
// from a catalog dataset's model, which spreads them around the mean; the
// reference stores the size it is given at insert while the caches
// recompute it from the model at every promotion, demotion and eviction,
// so the two agreeing to the bit shows a derived size is the stored one.
func TestSlabMatchesReference(t *testing.T) {
	const ids = 200
	d := dataset.ImageNet1K.Scale(0.001)
	sizes := d.Sizes()
	capBytes := 67 * d.AvgItemBytes() // about a third of the IDs
	for _, pol := range []Policy{LRU, TwoList, Random} {
		grown := New(pol, sizes, capBytes, 17)
		sized := NewSized(pol, sizes, capBytes, 17, ids)
		ref := newRef(pol, capBytes, 17)
		rng := rand.New(rand.NewSource(99))
		for op := 0; op < 50000; op++ {
			id := dataset.ItemID(rng.Intn(ids))
			switch rng.Intn(3) {
			case 0:
				want := ref.Lookup(id)
				if got := grown.Lookup(id); got != want {
					t.Fatalf("%v op %d: Lookup(%d) = %v, reference %v", pol, op, id, got, want)
				}
				if got := sized.Lookup(id); got != want {
					t.Fatalf("%v op %d: sized Lookup(%d) = %v, reference %v", pol, op, id, got, want)
				}
			case 1:
				grown.Insert(id)
				sized.Insert(id)
				ref.Insert(id, sizes.Bytes(id))
			default:
				want := ref.Contains(id)
				if grown.Contains(id) != want || sized.Contains(id) != want {
					t.Fatalf("%v op %d: Contains(%d) = %v/%v, reference %v",
						pol, op, id, grown.Contains(id), sized.Contains(id), want)
				}
			}
			for _, c := range []*Cache{grown, sized} {
				if c.UsedBytes() != ref.usedBytes || c.activeBytes != ref.activeBytes || c.Len() != len(ref.items) {
					t.Fatalf("%v op %d: used/active/len %v/%v/%d, reference %v/%v/%d",
						pol, op, c.UsedBytes(), c.activeBytes, c.Len(), ref.usedBytes, ref.activeBytes, len(ref.items))
				}
				if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Evictions() != ref.evictions {
					t.Fatalf("%v op %d: hits/misses/evictions %d/%d/%d, reference %d/%d/%d",
						pol, op, c.Hits(), c.Misses(), c.Evictions(), ref.hits, ref.misses, ref.evictions)
				}
			}
		}
		// Final residency sweep: every ID agrees.
		for id := dataset.ItemID(0); id < ids; id++ {
			if want := ref.Contains(id); grown.Contains(id) != want || sized.Contains(id) != want {
				t.Fatalf("%v: residency of %d diverged", pol, id)
			}
		}
	}
}

// TestSizedCacheNeverGrows: a NewSized cache keeps the slot array it was
// built with while IDs stay inside its range, across fills, evictions and
// refills, for every policy.
func TestSizedCacheNeverGrows(t *testing.T) {
	const n = 1000
	for _, pol := range []Policy{LRU, TwoList, Random} {
		c := NewSized(pol, unit, 100, 1, n)
		slots := &c.slots[0]
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < n; i++ {
				if !c.Lookup(dataset.ItemID(i)) {
					c.Insert(dataset.ItemID(i))
				}
			}
		}
		if len(c.slots) != n || cap(c.slots) != n || &c.slots[0] != slots {
			t.Fatalf("%v: slot array reallocated to len %d cap %d for %d sized IDs", pol, len(c.slots), cap(c.slots), n)
		}
	}
}

// TestInsertGrowsSlotsOnDemand: an unsized cache accepts any non-negative
// ID, and growth keeps earlier residents and leaves new slots absent.
func TestInsertGrowsSlotsOnDemand(t *testing.T) {
	c := New(LRU, unit, 10, 1)
	c.Insert(3)
	c.Insert(1000)
	c.Insert(-1)
	if !c.Contains(3) || !c.Contains(1000) || c.Contains(-1) || c.Contains(999) || c.Len() != 2 {
		t.Fatalf("residency after growth: 3=%v 1000=%v -1=%v 999=%v len=%d",
			c.Contains(3), c.Contains(1000), c.Contains(-1), c.Contains(999), c.Len())
	}
	if !c.Lookup(1000) || c.UsedBytes() != 2 {
		t.Fatalf("Lookup(1000) missed or used bytes %v, want a hit and 2", c.UsedBytes())
	}
}

// TestSlotIs8Bytes pins the slot size, the page cache's whole per-item
// footprint: two 32-bit links, the residency state riding in the top two
// bits of the next one, and no stored size — the size model gives it.
func TestSlotIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 8 {
		t.Fatalf("slot is %d bytes, want 8", n)
	}
}

// TestInsertIgnoresUnlinkableIDs: an ID at or above 2^30-1 has no link
// below the state bits, so Insert ignores it as it ignores a negative ID —
// nothing is cached, evicted or grown — while the link of the largest
// accepted ID, 2^30-2, fits beside every state.
func TestInsertIgnoresUnlinkableIDs(t *testing.T) {
	for _, pol := range []Policy{LRU, TwoList, Random} {
		c := New(pol, unit, 2, 1)
		c.Insert(5)
		c.Insert(6)
		for _, id := range []dataset.ItemID{-1, 1<<30 - 1, 1 << 30, 1<<31 - 1} {
			c.Insert(id)
			if c.Contains(id) || c.Len() != 2 || c.Evictions() != 0 || len(c.slots) != 7 {
				t.Fatalf("%v: Insert(%d) changed the cache: resident %v, len %d, evictions %d, %d slots",
					pol, id, c.Contains(id), c.Len(), c.Evictions(), len(c.slots))
			}
		}
	}
	// A cache holding the largest accepted ID would need an 8 GiB slot
	// array, so its packing is checked on a bare slot.
	top := linkOf(1<<30 - 2)
	for _, st := range []uint8{absent, inactive, active} {
		var en entry
		en.setNext(top)
		en.setState(st)
		if en.state() != st || en.nextLink() != top {
			t.Fatalf("state %d beside link %#x: read back state %d, link %#x", st, top, en.state(), en.nextLink())
		}
		en.setNext(0)
		if en.state() != st || en.nextLink() != 0 {
			t.Fatalf("clearing the link beside state %d: read back state %d, link %#x", st, en.state(), en.nextLink())
		}
	}
}

// TestAllocsPagecacheHotPaths is the zero-allocation guard on the page
// cache: steady-state Lookup (including TwoList promotion/demotion churn)
// and Insert-with-eviction must not allocate. Enforced in CI without race
// instrumentation.
func TestAllocsPagecacheHotPaths(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	for _, pol := range []Policy{LRU, TwoList, Random} {
		const n = 512
		c := New(pol, unit, n/2, 7)
		// Warm until the slot array and randKeys reach their
		// steady-state footprint.
		for e := 0; e < 2; e++ {
			for i := 0; i < n; i++ {
				if !c.Lookup(dataset.ItemID(i)) {
					c.Insert(dataset.ItemID(i))
				}
			}
		}
		i := 0
		step := func() {
			for k := 0; k < 256; k++ {
				id := dataset.ItemID(i & (n - 1))
				if !c.Lookup(id) {
					c.Insert(id)
				}
				i++
			}
		}
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Fatalf("%v: steady-state lookup+insert allocates %v per 256 accesses, want 0", pol, avg)
		}
	}
}

// TestReleasedSlotsReuse: a cache built after another's Release starts
// empty whatever the released one held, and a released array more than
// twice the size a new cache needs is not handed to it, so a small run
// does not keep a large run's array alive. GOMAXPROCS(1) keeps the pool's
// Put and Get on one P, where nothing else takes the array in between.
func TestReleasedSlotsReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1000
	dirty := NewSized(TwoList, unit, n/2, 3, n)
	for i := 0; i < n; i++ {
		dirty.Insert(dataset.ItemID(i))
	}
	dirty.Release()
	c := NewSized(TwoList, unit, n/2, 3, n)
	for i := 0; i < n; i++ {
		if c.Contains(dataset.ItemID(i)) {
			t.Fatalf("item %d resident in a new cache built on a released array", i)
		}
	}
	c.Release()
	if small := NewSized(TwoList, unit, 10, 3, n/4); cap(small.slots) > n/2 {
		t.Fatalf("a %d-item cache holds a %d-slot array", n/4, cap(small.slots))
	}
}
