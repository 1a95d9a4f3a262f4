package cache

import (
	"math/rand"
	"testing"

	"datastall/internal/dataset"
	"datastall/internal/race"
)

// TestDenseMinIOMatchesMap replays random op grids through the dense
// (slice-backed) MinIO and the retained map-backed reference: identical
// hit/miss/rejected counters, used bytes, and residency at every step, for
// a grid of seeds and capacities — the dense layout is a pure
// representation change.
func TestDenseMinIOMatchesMap(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		for _, capBytes := range []float64{0, 100, 1000, 1e9} {
			dense := NewMinIO(capBytes)
			ref := NewMapMinIO(capBytes)
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 20000; op++ {
				id := dataset.ItemID(rng.Intn(500))
				switch rng.Intn(3) {
				case 0:
					if got, want := dense.Lookup(id), ref.Lookup(id); got != want {
						t.Fatalf("seed=%d cap=%v op %d: Lookup(%d) = %v, reference %v",
							seed, capBytes, op, id, got, want)
					}
				case 1:
					bytes := float64(1 + rng.Intn(20))
					dense.Insert(id, bytes)
					ref.Insert(id, bytes)
				default:
					if got, want := dense.Contains(id), ref.Contains(id); got != want {
						t.Fatalf("seed=%d cap=%v op %d: Contains(%d) = %v, reference %v",
							seed, capBytes, op, id, got, want)
					}
				}
				if dense.UsedBytes() != ref.UsedBytes() {
					t.Fatalf("seed=%d cap=%v op %d: used %v, reference %v",
						seed, capBytes, op, dense.UsedBytes(), ref.UsedBytes())
				}
			}
			if dense.Hits() != ref.Hits() || dense.Misses() != ref.Misses() ||
				dense.Rejected() != ref.Rejected() || dense.Len() != ref.Len() {
				t.Fatalf("seed=%d cap=%v: counters h/m/r/len %d/%d/%d/%d, reference %d/%d/%d/%d",
					seed, capBytes, dense.Hits(), dense.Misses(), dense.Rejected(), dense.Len(),
					ref.Hits(), ref.Misses(), ref.Rejected(), ref.Len())
			}
		}
	}
}

// TestDenseMinIOEpochEquivalence drives whole seeded epochs (the MinIO
// fetch loop: lookup, insert on miss) through both implementations and
// requires identical per-epoch hit/miss counts — the benchmark-equivalence
// surface BENCH_2.json's cache comparison rests on.
func TestDenseMinIOEpochEquivalence(t *testing.T) {
	const items = 2048
	for _, seed := range []int64{3, 11} {
		for _, capFrac := range []float64{0.25, 0.5, 1.0} {
			capBytes := capFrac * items
			dense := NewMinIOSized(capBytes, items)
			ref := NewMapMinIO(capBytes)
			rng := rand.New(rand.NewSource(seed))
			for epoch := 0; epoch < 3; epoch++ {
				dense.ResetStats()
				ref.ResetStats()
				for _, i := range rng.Perm(items) {
					id := dataset.ItemID(i)
					if !dense.Lookup(id) {
						dense.Insert(id, 1)
					}
					if !ref.Lookup(id) {
						ref.Insert(id, 1)
					}
				}
				if dense.Hits() != ref.Hits() || dense.Misses() != ref.Misses() {
					t.Fatalf("seed=%d cap=%v epoch %d: hits/misses %d/%d, reference %d/%d",
						seed, capFrac, epoch, dense.Hits(), dense.Misses(), ref.Hits(), ref.Misses())
				}
			}
		}
	}
}

// TestAllocsMinIOLookup is the zero-allocation guard on the cache hot path:
// steady-state Lookup and duplicate/rejected Insert must not allocate.
// Enforced in CI without race instrumentation.
func TestAllocsMinIOLookup(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	const n = 4096
	m := NewMinIOSized(n/2, n)
	for i := 0; i < n; i++ {
		m.Insert(dataset.ItemID(i), 1) // fills to capacity, then rejects
	}
	i := 0
	step := func() {
		for k := 0; k < 512; k++ {
			id := dataset.ItemID(i & (n - 1))
			if !m.Lookup(id) {
				m.Insert(id, 1)
			}
			i++
		}
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("steady-state MinIO lookup+insert allocates %v per 512 accesses, want 0", avg)
	}
}

// MapMinIO is the original map-backed MinIO implementation, kept as the
// reference oracle the equivalence tests above replay op sequences through
// (with the same negative-ID guard the dense MinIO applies).
type MapMinIO struct {
	capBytes  float64
	usedBytes float64
	items     map[dataset.ItemID]float64

	hits, misses int64
	rejected     int64
}

// NewMapMinIO returns an empty map-backed MinIO cache.
func NewMapMinIO(capBytes float64) *MapMinIO {
	return &MapMinIO{capBytes: capBytes, items: make(map[dataset.ItemID]float64)}
}

// Lookup reports residency and counts a hit or a miss.
func (m *MapMinIO) Lookup(id dataset.ItemID) bool {
	if _, ok := m.items[id]; ok {
		m.hits++
		return true
	}
	m.misses++
	return false
}

// Insert caches id first-come-first-cached and never evicts.
func (m *MapMinIO) Insert(id dataset.ItemID, bytes float64) {
	if id < 0 {
		return
	}
	if _, ok := m.items[id]; ok {
		return
	}
	if m.usedBytes+bytes > m.capBytes {
		m.rejected++
		return
	}
	m.items[id] = bytes
	m.usedBytes += bytes
}

// Contains reports residency without side effects.
func (m *MapMinIO) Contains(id dataset.ItemID) bool {
	_, ok := m.items[id]
	return ok
}

func (m *MapMinIO) UsedBytes() float64 { return m.usedBytes }
func (m *MapMinIO) Hits() int64        { return m.hits }
func (m *MapMinIO) Misses() int64      { return m.misses }
func (m *MapMinIO) Rejected() int64    { return m.rejected }
func (m *MapMinIO) Len() int           { return len(m.items) }
func (m *MapMinIO) ResetStats()        { m.hits, m.misses, m.rejected = 0, 0, 0 }
