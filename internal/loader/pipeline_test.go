package loader

import (
	"sync/atomic"
	"testing"

	"datastall/internal/cache"
	"datastall/internal/dataset"
)

// pipelineDataset returns an equal-sized-items dataset (sizeSpread 0), the
// regime where MinIO statistics are exactly scheduling-independent.
func pipelineDataset(items int) *dataset.Dataset {
	return &dataset.Dataset{Name: "pipe", NumItems: items, TotalBytes: float64(items) * 8}
}

// minioFetch is the CoorDL lookup-or-insert loop over a concurrent cache.
func minioFetch(d *dataset.Dataset, c cache.Cache) BatchFetch {
	return MinIOBatchFetch(d, c, 1)
}

// TestPipelineExactAccounting: totals across the epoch equal the serial
// reference for every worker count — the bounded channels lose nothing.
func TestPipelineExactAccounting(t *testing.T) {
	d := pipelineDataset(2048)
	order := dataset.NewRandomSampler(dataset.FullShard(d), 3).EpochOrder(0)

	// Serial reference.
	ref := cache.NewMinIO(500 * 8)
	var want FetchResult
	for _, id := range order {
		sz := d.Sizes().Bytes(id)
		if ref.Lookup(id) {
			want.MemBytes += sz
			want.Hits++
		} else {
			want.DiskBytes += sz
			want.DiskItems++
			want.Misses++
			ref.Insert(id, sz)
		}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		c := cache.NewShardedMinIO(500*8, 16)
		p := &Pipeline{Workers: workers, Batch: 32, Fetch: minioFetch(d, c)}
		// Warmup epoch: all misses on both backends.
		warm := p.RunEpoch(order)
		if warm.Fetch.Hits != 0 || warm.Fetch.Misses != len(order) {
			t.Fatalf("workers=%d: warmup hits/misses %d/%d, want 0/%d",
				workers, warm.Fetch.Hits, warm.Fetch.Misses, len(order))
		}
		// Steady epoch matches the serial reference's steady epoch.
		refSteady := 0
		for _, id := range order {
			if ref.Contains(id) {
				refSteady++
			}
		}
		rep := p.RunEpoch(order)
		if rep.Fetch.Hits != refSteady {
			t.Fatalf("workers=%d: steady hits %d, want %d", workers, rep.Fetch.Hits, refSteady)
		}
		if rep.Fetch.Hits+rep.Fetch.Misses != len(order) {
			t.Fatalf("workers=%d: hits+misses %d, want %d",
				workers, rep.Fetch.Hits+rep.Fetch.Misses, len(order))
		}
		if rep.Items != len(order) || rep.Batches != (len(order)+31)/32 {
			t.Fatalf("workers=%d: items/batches %d/%d", workers, rep.Items, rep.Batches)
		}
	}
}

// TestPipelinePrepStage: every fetched batch passes through prep exactly once.
func TestPipelinePrepStage(t *testing.T) {
	d := pipelineDataset(512)
	order := dataset.FullShard(d).Items
	var prepped atomic.Int64
	var bytes atomic.Int64
	c := cache.NewShardedMinIO(1e12, 8)
	p := &Pipeline{
		Workers: 4, PrepWorkers: 2, Batch: 10, QueueDepth: 3,
		Fetch: minioFetch(d, c),
		Prep: func(r FetchResult) {
			prepped.Add(1)
			bytes.Add(int64(r.MemBytes + r.DiskBytes + r.NetBytes))
		},
	}
	rep := p.RunEpoch(order)
	wantBatches := (len(order) + 9) / 10
	if prepped.Load() != int64(wantBatches) || rep.Batches != wantBatches {
		t.Fatalf("prepped %d batches (report %d), want %d", prepped.Load(), rep.Batches, wantBatches)
	}
	if got, want := bytes.Load(), int64(d.TotalBytes); got != want {
		t.Fatalf("prep saw %d bytes, want %d", got, want)
	}
}

// TestPipelineDefaults: zero-value knobs are clamped, not panicking.
func TestPipelineDefaults(t *testing.T) {
	d := pipelineDataset(64)
	c := cache.NewShardedMinIO(0, 0) // zero capacity: everything rejected
	p := &Pipeline{Fetch: minioFetch(d, c)}
	rep := p.RunEpoch(dataset.FullShard(d).Items)
	if rep.Fetch.Misses != 64 || rep.Batches != 1 {
		t.Fatalf("defaults: misses %d batches %d, want 64/1", rep.Fetch.Misses, rep.Batches)
	}
	if rep := (&Pipeline{Workers: -1, Batch: -5, QueueDepth: -2, Fetch: minioFetch(d, c)}).RunEpoch(nil); rep.Items != 0 {
		t.Fatalf("empty order: items %d, want 0", rep.Items)
	}
	// Absurd knobs clamp: this must spawn at most maxWorkers goroutines
	// and a maxQueueDepth channel, not OOM.
	huge := &Pipeline{Workers: 1 << 30, PrepWorkers: 1 << 30, QueueDepth: 1 << 30, Batch: 1, Fetch: minioFetch(d, c)}
	if rep := huge.RunEpoch(dataset.FullShard(d).Items); rep.Items != 64 {
		t.Fatalf("huge knobs: items %d, want 64", rep.Items)
	}
}

// TestEpochReportAdd: multi-server roll-up takes the max wall (servers
// overlap) and sums counters.
func TestEpochReportAdd(t *testing.T) {
	a := EpochReport{Fetch: FetchResult{Hits: 1}, Batches: 2, Items: 3, WallSeconds: 0.5}
	b := EpochReport{Fetch: FetchResult{Misses: 4}, Batches: 1, Items: 7, WallSeconds: 0.2}
	a.Add(b)
	if a.Fetch.Hits != 1 || a.Fetch.Misses != 4 || a.Batches != 3 || a.Items != 10 {
		t.Fatalf("bad roll-up: %+v", a)
	}
	if a.WallSeconds != 0.5 {
		t.Fatalf("WallSeconds %v, want max 0.5", a.WallSeconds)
	}
}
