package pagecache

import (
	"math/rand"
	"testing"
	"unsafe"

	"datastall/internal/dataset"
	"datastall/internal/race"
)

// TestSlabMatchesReference replays long random op sequences through the
// frozen map+container/list reference model and two ID-indexed caches, one
// growing its slot array on demand and one pre-sized by NewSized: every
// policy must produce identical hits, misses, evictions, used bytes, hit
// sizes and residency at every step — the slot layout is a pure
// representation change, down to rng consumption.
func TestSlabMatchesReference(t *testing.T) {
	const ids = 200
	for _, pol := range []Policy{LRU, TwoList, Random} {
		grown := New(pol, 300, 17)
		sized := NewSized(pol, 300, 17, ids)
		ref := newRef(pol, 300, 17)
		rng := rand.New(rand.NewSource(99))
		for op := 0; op < 50000; op++ {
			id := dataset.ItemID(rng.Intn(ids))
			switch rng.Intn(3) {
			case 0:
				var wantBytes float64
				if e, ok := ref.items[id]; ok {
					wantBytes = e.bytes
				}
				want := ref.Lookup(id)
				if got := grown.Lookup(id); got != want {
					t.Fatalf("%v op %d: Lookup(%d) = %v, reference %v", pol, op, id, got, want)
				}
				if got, ok := sized.Get(id); ok != want || got != wantBytes {
					t.Fatalf("%v op %d: Get(%d) = %v, %v; reference %v, %v", pol, op, id, got, ok, wantBytes, want)
				}
			case 1:
				bytes := float64(1 + rng.Intn(8))
				grown.Insert(id, bytes)
				sized.Insert(id, bytes)
				ref.Insert(id, bytes)
			default:
				want := ref.Contains(id)
				if grown.Contains(id) != want || sized.Contains(id) != want {
					t.Fatalf("%v op %d: Contains(%d) = %v/%v, reference %v",
						pol, op, id, grown.Contains(id), sized.Contains(id), want)
				}
			}
			for _, c := range []*Cache{grown, sized} {
				if c.UsedBytes() != ref.usedBytes || c.Len() != len(ref.items) {
					t.Fatalf("%v op %d: used/len %v/%d, reference %v/%d",
						pol, op, c.UsedBytes(), c.Len(), ref.usedBytes, len(ref.items))
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
		c := NewSized(pol, 100, 1, n)
		slots := &c.slots[0]
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < n; i++ {
				if !c.Lookup(dataset.ItemID(i)) {
					c.Insert(dataset.ItemID(i), 1)
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
	c := New(LRU, 10, 1)
	c.Insert(3, 1)
	c.Insert(1000, 1)
	c.Insert(-1, 1)
	if !c.Contains(3) || !c.Contains(1000) || c.Contains(-1) || c.Contains(999) || c.Len() != 2 {
		t.Fatalf("residency after growth: 3=%v 1000=%v -1=%v 999=%v len=%d",
			c.Contains(3), c.Contains(1000), c.Contains(-1), c.Contains(999), c.Len())
	}
	if b, ok := c.Get(1000); !ok || b != 1 {
		t.Fatalf("Get(1000) = %v, %v; want 1, true", b, ok)
	}
}

// TestSlotIs16Bytes pins the slot size: the residency state rides in the
// top two bits of the next link instead of padding a third field to 24
// bytes, which is the page cache's whole per-item footprint.
func TestSlotIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("slot is %d bytes, want 16", n)
	}
}

// TestInsertIgnoresUnlinkableIDs: an ID at or above 2^30-1 has no link
// below the state bits, so Insert ignores it as it ignores a negative ID —
// nothing is cached, evicted or grown — while the link of the largest
// accepted ID, 2^30-2, fits beside every state.
func TestInsertIgnoresUnlinkableIDs(t *testing.T) {
	for _, pol := range []Policy{LRU, TwoList, Random} {
		c := New(pol, 2, 1)
		c.Insert(5, 1)
		c.Insert(6, 1)
		for _, id := range []dataset.ItemID{-1, 1<<30 - 1, 1 << 30, 1<<31 - 1} {
			c.Insert(id, 1)
			if c.Contains(id) || c.Len() != 2 || c.Evictions() != 0 || len(c.slots) != 7 {
				t.Fatalf("%v: Insert(%d) changed the cache: resident %v, len %d, evictions %d, %d slots",
					pol, id, c.Contains(id), c.Len(), c.Evictions(), len(c.slots))
			}
		}
	}
	// A cache holding the largest accepted ID would need a 16 GiB slot
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
		c := New(pol, n/2, 7)
		// Warm until the slot array and randKeys reach their
		// steady-state footprint.
		for e := 0; e < 2; e++ {
			for i := 0; i < n; i++ {
				if !c.Lookup(dataset.ItemID(i)) {
					c.Insert(dataset.ItemID(i), 1)
				}
			}
		}
		i := 0
		step := func() {
			for k := 0; k < 256; k++ {
				id := dataset.ItemID(i & (n - 1))
				if !c.Lookup(id) {
					c.Insert(id, 1)
				}
				i++
			}
		}
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Fatalf("%v: steady-state lookup+insert allocates %v per 256 accesses, want 0", pol, avg)
		}
	}
}
