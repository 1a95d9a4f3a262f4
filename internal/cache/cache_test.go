package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datastall/internal/dataset"
	"datastall/internal/pagecache"
)

func TestMinIONeverEvicts(t *testing.T) {
	m := NewMinIO(3)
	m.Insert(1, 1)
	m.Insert(2, 1)
	m.Insert(3, 1)
	m.Insert(4, 1) // full: rejected
	if m.Contains(4) {
		t.Fatal("MinIO must not evict to admit new items")
	}
	for _, id := range []dataset.ItemID{1, 2, 3} {
		if !m.Contains(id) {
			t.Fatalf("item %d lost", id)
		}
	}
	if m.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected())
	}
}

func TestMinIOExactCapacityHits(t *testing.T) {
	// The MinIO guarantee (§4.1): every epoch after warmup gets exactly
	// as many hits as there are cached items.
	n, capacity := 1000, 350
	m := NewMinIO(float64(capacity))
	rng := rand.New(rand.NewSource(1))
	warm := rng.Perm(n)
	for _, i := range warm {
		if !m.Lookup(dataset.ItemID(i)) {
			m.Insert(dataset.ItemID(i), 1)
		}
	}
	for epoch := 0; epoch < 3; epoch++ {
		m.ResetStats()
		perm := rng.Perm(n)
		for _, i := range perm {
			if !m.Lookup(dataset.ItemID(i)) {
				m.Insert(dataset.ItemID(i), 1)
			}
		}
		if m.Hits() != int64(capacity) {
			t.Fatalf("epoch %d: hits = %d, want exactly %d", epoch, m.Hits(), capacity)
		}
		if m.Misses() != int64(n-capacity) {
			t.Fatalf("epoch %d: misses = %d, want %d", epoch, m.Misses(), n-capacity)
		}
	}
}

func TestMinIOBeatsPageCache(t *testing.T) {
	// Figure 8's worked example, generalised: on identical permutation
	// access, MinIO's per-epoch misses are capacity misses only, while
	// the page cache thrashes.
	n := 2000
	capacity := 0.5 * float64(n)
	m := NewMinIO(capacity)
	pc := pagecache.New(pagecache.TwoList, dataset.UniformSizes(1), capacity, 7)
	rng := rand.New(rand.NewSource(2))
	for epoch := 0; epoch < 4; epoch++ {
		if epoch == 1 {
			m.ResetStats()
			pc.ResetStats()
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			id := dataset.ItemID(i)
			if !m.Lookup(id) {
				m.Insert(id, 1)
			}
			if !pc.Lookup(id) {
				pc.Insert(id)
			}
		}
	}
	if m.HitRate() <= pc.HitRate() {
		t.Fatalf("MinIO (%.2f) must beat page cache (%.2f)", m.HitRate(), pc.HitRate())
	}
	if m.HitRate() != 0.5 {
		t.Fatalf("MinIO hit rate %.3f, want exactly 0.5", m.HitRate())
	}
}

func TestFig8WorkedExample(t *testing.T) {
	// Fig 8: dataset {A,B,C,D}, cache size 2, warmed with {D,B}. MinIO
	// serves exactly 2 hits per epoch regardless of access order.
	m := NewMinIO(2)
	m.Insert(3, 1) // D
	m.Insert(1, 1) // B
	for _, epoch := range [][]dataset.ItemID{{2, 1, 0, 3}, {1, 2, 3, 0}} {
		m.ResetStats()
		for _, id := range epoch {
			if !m.Lookup(id) {
				m.Insert(id, 1)
			}
		}
		if m.Hits() != 2 || m.Misses() != 2 {
			t.Fatalf("epoch %v: hits=%d misses=%d, want 2/2", epoch, m.Hits(), m.Misses())
		}
	}
}

func TestPartitionedCoverAndRouting(t *testing.T) {
	d := &dataset.Dataset{Name: "t", NumItems: 1000, TotalBytes: 1000}
	// 2 servers, each caching 50% -> full dataset in aggregate.
	p := NewPartitioned(d, 2, 500, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Warmup: each server fetches its own shard.
	for id := 0; id < 1000; id++ {
		s := p.Owner(dataset.ItemID(id))
		if loc, _ := p.Lookup(s, dataset.ItemID(id)); loc != Miss {
			t.Fatal("cold cache should miss")
		}
		p.Insert(s, dataset.ItemID(id), 1)
	}
	p.ResetStats()
	// Steady state: any server finds every item locally or remotely.
	for id := 0; id < 1000; id++ {
		loc, src := p.Lookup(0, dataset.ItemID(id))
		switch loc {
		case Miss:
			t.Fatalf("item %d missed despite full aggregate cache", id)
		case RemoteHit:
			if src != 1 {
				t.Fatalf("remote hit routed to %d", src)
			}
		}
	}
	local, remote, miss := p.Stats(0)
	if miss != 0 {
		t.Fatalf("misses = %d, want 0", miss)
	}
	if local == 0 || remote == 0 {
		t.Fatalf("expected both local (%d) and remote (%d) hits", local, remote)
	}
	if local+remote != 1000 {
		t.Fatalf("local+remote = %d", local+remote)
	}
}

func TestPartitionedInsufficientAggregate(t *testing.T) {
	d := &dataset.Dataset{Name: "t", NumItems: 1000, TotalBytes: 1000}
	// 2 servers × 300 = 60% aggregate: 40% of items stay uncached.
	p := NewPartitioned(d, 2, 300, 3)
	for id := 0; id < 1000; id++ {
		s := p.Owner(dataset.ItemID(id))
		if loc, _ := p.Lookup(s, dataset.ItemID(id)); loc == Miss {
			p.Insert(s, dataset.ItemID(id), 1)
		}
	}
	p.ResetStats()
	misses := 0
	for id := 0; id < 1000; id++ {
		if loc, _ := p.Lookup(0, dataset.ItemID(id)); loc == Miss {
			misses++
		}
	}
	if misses != 400 {
		t.Fatalf("misses = %d, want exactly 400 (aggregate capacity misses)", misses)
	}
}

func TestPartitionedNonOwnerInsertIgnored(t *testing.T) {
	d := &dataset.Dataset{Name: "t", NumItems: 10, TotalBytes: 10}
	p := NewPartitioned(d, 2, 5, 3)
	id := dataset.ItemID(0)
	other := 1 - p.Owner(id)
	p.Insert(other, id, 1)
	if p.Server(other).Contains(id) {
		t.Fatal("non-owner cached an item outside its shard")
	}
}

func TestLocationString(t *testing.T) {
	if Miss.String() != "miss" || LocalHit.String() != "local" || RemoteHit.String() != "remote" {
		t.Fatal("bad location strings")
	}
}

// Property: MinIO hit count per epoch equals min(cacheItems, capacity) after
// warmup, for any capacity and dataset size.
func TestMinIOHitsEqualCapacityProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8, seed int64) bool {
		n := int(nRaw)%200 + 10
		c := int(cRaw) % (n + 20)
		m := NewMinIO(float64(c))
		rng := rand.New(rand.NewSource(seed))
		for e := 0; e < 3; e++ {
			m.ResetStats()
			for _, i := range rng.Perm(n) {
				if !m.Lookup(dataset.ItemID(i)) {
					m.Insert(dataset.ItemID(i), 1)
				}
			}
		}
		want := c
		if n < c {
			want = n
		}
		return m.Hits() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitioned lookup never reports RemoteHit from a server that
// doesn't hold the item, and never misses when aggregate capacity >= dataset.
func TestPartitionedRoutingProperty(t *testing.T) {
	f := func(nServersRaw uint8, seed int64) bool {
		ns := int(nServersRaw)%4 + 1
		d := &dataset.Dataset{Name: "t", NumItems: 300, TotalBytes: 300}
		p := NewPartitioned(d, ns, 300/float64(ns)+1, seed)
		for id := 0; id < 300; id++ {
			p.Insert(p.Owner(dataset.ItemID(id)), dataset.ItemID(id), 1)
		}
		for id := 0; id < 300; id++ {
			loc, src := p.Lookup(0, dataset.ItemID(id))
			if loc == Miss {
				return false
			}
			if loc == RemoteHit && !p.Server(src).Contains(dataset.ItemID(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
