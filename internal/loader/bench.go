// Benchmark measurement helpers shared by the Go benchmarks (bench_test.go
// at the module root) and cmd/stallbench's -bench mode, which emits the
// BENCH_*.json perf-trajectory files. They measure real host concurrency, so
// results depend on GOMAXPROCS — reports should always record the CPU count
// alongside the numbers.
package loader

import (
	"sync"
	"time"

	"datastall/internal/cache"
	"datastall/internal/dataset"
)

// MeasureLookupThroughput pre-populates nothing and assumes c already holds
// its working set: it runs `workers` goroutines, each performing
// opsPerWorker lookups striding over ids, and returns aggregate lookups/sec.
func MeasureLookupThroughput(c cache.Cache, ids []dataset.ItemID, workers, opsPerWorker int) float64 {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			n := len(ids)
			for i := 0; i < opsPerWorker; i++ {
				c.Lookup(ids[(off+i*7)%n])
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(workers*opsPerWorker) / elapsed
}

// BenchCacheWorkload builds the standard lookup-benchmark fixture: an
// equal-sized synthetic dataset of n items, its ID list, and a fully
// populated cache returned by build.
func BenchCacheWorkload(n int, build func(capBytes float64) cache.Cache) (cache.Cache, []dataset.ItemID) {
	const itemBytes = 1024.0
	c := build(float64(n) * itemBytes)
	ids := make([]dataset.ItemID, n)
	for i := range ids {
		ids[i] = dataset.ItemID(i)
		c.Insert(ids[i], itemBytes)
	}
	return c, ids
}

// MinIOBatchFetch returns the lookup-or-fetch-and-insert loop over any
// goroutine-safe cache: hits are served from memory, misses cost
// seeksPerItem disk reads and are offered to the cache. This is THE policy
// loop — the trainer's concurrent backend, the benchmarks, and the tests
// all share it, so they cannot drift apart.
func MinIOBatchFetch(d *dataset.Dataset, c cache.Cache, seeksPerItem int) BatchFetch {
	if seeksPerItem < 1 {
		seeksPerItem = 1
	}
	sizes := d.Sizes()
	return func(_ int, items []dataset.ItemID) FetchResult {
		var r FetchResult
		for _, id := range items {
			sz := sizes.Bytes(id)
			if c.Lookup(id) {
				r.MemBytes += sz
				r.Hits++
			} else {
				r.DiskBytes += sz
				r.DiskItems += seeksPerItem
				r.Misses++
				c.Insert(id, sz)
			}
		}
		return r
	}
}

// MeasureEpochWall drives one steady-state epoch of the MinIO pipeline at
// the given worker count over a pre-warmed sharded cache and returns the
// epoch report (wall seconds, exact counters).
func MeasureEpochWall(d *dataset.Dataset, c cache.Cache, order []dataset.ItemID, workers, batch int) EpochReport {
	p := &Pipeline{Workers: workers, Batch: batch, Fetch: MinIOBatchFetch(d, c, 1)}
	return p.RunEpoch(order)
}
