package trainer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datastall/internal/cache"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/pagecache"
	"datastall/internal/prep"
)

// runConcurrent executes the job's data-loading path for real: one goroutine
// fetch->prep pipeline per server (loader.Pipeline) over goroutine-safe
// caches, with ThreadsPerGPU x GPUsPerServer fetch workers per server. The
// samplers, truncation, and cache policies are shared with the analytic
// backend via orderSource/epochIters, so per-epoch cache statistics line up
// (exactly for MinIO over equal-sized items — see the property tests);
// Duration is host wall-clock and compute/stall times are not modeled.
// Cancellation is honored between epochs and on the pipelines' channel
// sends (RunEpochContext), so an oversized job dies mid-epoch.
func runConcurrent(ctx context.Context, cfg Config, obs observers) (*Result, error) {
	workers := cfg.ThreadsPerGPU * cfg.GPUsPerServer
	if workers < 1 {
		workers = 1
	}
	depth := cfg.PrefetchDepth * cfg.GPUsPerServer
	if depth < 1 {
		depth = 1
	}

	fetches, ownerShards, occupancy, err := concurrentFetchers(cfg)
	if err != nil {
		return nil, err
	}
	// The analytic producers charge every batch raw/prepRatePerGPU (each
	// GPU's prep server runs at its thread share's rate), so the pool uses
	// the per-GPU rate too: PrepBusySeconds then equals the analytic
	// backend's aggregate prep-busy time for the same bytes.
	prepRate := prep.Rate(cfg.Model, cfg.prepConfig())
	pools := make([]*prep.Pool, cfg.NumServers)
	pipes := make([]*loader.Pipeline, cfg.NumServers)
	for s := 0; s < cfg.NumServers; s++ {
		pool := prep.NewPoolRate(prepRate)
		pools[s] = pool
		pipes[s] = &loader.Pipeline{
			Workers:     workers,
			PrepWorkers: workers,
			Batch:       cfg.Batch,
			QueueDepth:  depth,
			Fetch:       fetches[s],
			Prep: func(r loader.FetchResult) {
				pool.Process(r.MemBytes + r.DiskBytes + r.NetBytes)
			},
		}
	}

	r := &Result{}
	obs.emit(JobStarted{
		Epochs: cfg.Epochs, Servers: cfg.NumServers,
		GPUsPerServer: cfg.GPUsPerServer, Backend: cfg.Backend,
	})
	src := newOrderSource(cfg, ownerShards)
	var pl *epochPlan
	for e := 0; e < cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		obs.emit(EpochStarted{Time: r.TotalTime, Epoch: e})
		// Each epoch's orders are fully consumed before the next epoch
		// starts (RunEpoch is a barrier), so the previous plan's
		// permutation buffer is recycled into this one.
		pl = src.orders(e, pl)
		orders, iters := pl.orders, pl.iters
		if iters < 1 {
			return nil, fmt.Errorf("trainer: dataset %s too small for %d servers x %d GPUs x batch %d",
				cfg.Dataset.Name, cfg.NumServers, cfg.GPUsPerServer, cfg.Batch)
		}
		perServer := iters * cfg.Batch * cfg.GPUsPerServer
		start := time.Now()
		reports := make([]loader.EpochReport, len(orders))
		var wg sync.WaitGroup
		for s := range orders {
			// Drop-last truncation, as the analytic producers iterate.
			// Epoch 0 with owner shards is the exception on both backends:
			// the whole shard (tail included) populates the partitioned
			// cache (§4.2) — but the tail is fetched without a prep
			// charge, exactly like the analytic tail loop.
			order, tail := orders[s][:perServer], []dataset.ItemID(nil)
			if e == 0 && ownerShards != nil {
				tail = orders[s][perServer:]
			}
			wg.Add(1)
			go func(s int, order, tail []dataset.ItemID) {
				defer wg.Done()
				rep, err := pipes[s].RunEpochContext(ctx, order)
				if err != nil {
					reports[s] = rep
					return // partial epoch; the ctx check below surfaces it
				}
				for i := 0; i < len(tail); i += cfg.Batch {
					j := min(i+cfg.Batch, len(tail))
					rep.Fetch.Add(fetches[s](0, tail[i:j]))
				}
				reports[s] = rep
			}(s, order, tail)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()

		var total loader.EpochReport
		for _, rep := range reports {
			total.Add(rep)
		}
		f := total.Fetch
		occ := occupancy()
		es := EpochStats{
			Duration:       wall,
			DiskBytes:      f.DiskBytes,
			NetBytes:       f.NetBytes,
			MemBytes:       f.MemBytes,
			DiskReads:      f.DiskItems,
			Hits:           f.Hits,
			Misses:         f.Misses,
			RemoteHits:     f.RemoteHit,
			Samples:        iters * cfg.Batch * cfg.GPUsPerServer * cfg.NumServers,
			CacheUsedBytes: occ,
		}
		r.Epochs = append(r.Epochs, es)
		r.TotalDiskBytes += f.DiskBytes
		r.TotalNetBytes += f.NetBytes
		r.TotalTime += wall
		obs.emit(EpochEnded{
			Time: r.TotalTime, Epoch: e, Stats: es,
			CacheUsedBytes: occ,
		})
	}
	for _, pool := range pools {
		r.PrepBusySeconds += pool.BusySeconds()
	}
	r.steadyState()
	obs.emit(JobEnded{Time: r.TotalTime, Result: r})
	return r, nil
}

// concurrentFetchers builds one goroutine-safe BatchFetch per server for the
// configured loader, mirroring newJobRuntime's fetcher selection. The second
// result is the static owner sharding (CoorDL distributed only); the third
// reports total cache occupancy for EpochEnded events (never nil).
func concurrentFetchers(cfg Config) ([]loader.BatchFetch, []dataset.Shard, func() float64, error) {
	d := cfg.Dataset
	sizes := d.Sizes()
	fetches := make([]loader.BatchFetch, cfg.NumServers)
	noCache := func() float64 { return 0 }
	switch {
	case cfg.FetchMode == Synthetic:
		for s := range fetches {
			fetches[s] = func(_ int, items []dataset.ItemID) loader.FetchResult {
				return loader.FetchResult{Hits: len(items)}
			}
		}
		return fetches, nil, noCache, nil

	case cfg.FetchMode == FullyCached:
		for s := range fetches {
			fetches[s] = func(_ int, items []dataset.ItemID) loader.FetchResult {
				var r loader.FetchResult
				for _, id := range items {
					r.MemBytes += sizes.Bytes(id)
					r.Hits++
				}
				return r
			}
		}
		return fetches, nil, noCache, nil

	case cfg.Loader == loader.CoorDL && cfg.NumServers > 1 && !cfg.DisableRemoteFetch:
		part := cache.NewShardedPartitioned(d, cfg.NumServers, cfg.CacheBytes, cfg.CacheShards, cfg.Seed)
		owner := part.OwnerShards()
		for s := range fetches {
			s := s
			fetches[s] = func(_ int, items []dataset.ItemID) loader.FetchResult {
				var r loader.FetchResult
				for _, id := range items {
					sz := sizes.Bytes(id)
					loc, _ := part.Lookup(s, id)
					switch loc {
					case cache.LocalHit:
						r.MemBytes += sz
						r.Hits++
					case cache.RemoteHit:
						r.NetBytes += sz
						r.RemoteHit++
					default:
						r.DiskBytes += sz
						r.DiskItems++
						r.Misses++
						part.Insert(s, id, sz)
					}
				}
				return r
			}
		}
		return fetches, owner, part.AggregateUsedBytes, nil

	case cfg.Loader == loader.CoorDL:
		caches := make([]*cache.ShardedMinIO, cfg.NumServers)
		for s := range fetches {
			mc := cache.NewShardedMinIO(cfg.CacheBytes, cfg.CacheShards)
			caches[s] = mc
			fetches[s] = loader.MinIOBatchFetch(d, mc, 1)
		}
		return fetches, nil, func() float64 { return cache.SumUsedBytes(caches) }, nil

	default:
		// Baseline loaders share the page-cache simulation; its recency
		// lists cannot be lock-striped without changing eviction order, so
		// workers serialize on one mutex (cache.Locked) — which is exactly
		// the contention the sharded benchmark quantifies. This switch
		// mirrors newJobRuntime's fetcher selection case for case; changes
		// there must land here too (the single-worker baseline property
		// test pins the parity).
		spi := 1
		if cfg.Loader == loader.PyTorchDL {
			spi = loader.PyTorchSeeksPerItem
		}
		caches := make([]*cache.Locked, cfg.NumServers)
		for s := range fetches {
			pc := cache.NewLocked(pagecache.New(pagecache.TwoList, cfg.CacheBytes, cfg.Seed+int64(s)))
			caches[s] = pc
			fetches[s] = loader.MinIOBatchFetch(d, pc, spi)
		}
		return fetches, nil, func() float64 { return cache.SumUsedBytes(caches) }, nil
	}
}
