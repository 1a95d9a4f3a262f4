package core

import (
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/race"
	"datastall/internal/sim"
)

// TestAllocsFetchPlan is the zero-allocation guard on fetch planning: once
// a fetcher's caches and the caller's op buffer are warm, planning a batch
// — lookups, inserts with eviction, and the device-op list — allocates
// nothing, for every fetcher the simulator uses.
func TestAllocsFetchPlan(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	cl := cluster.Build(sim.New(), cluster.ConfigSSDV100(), 2)
	d := testDataset(4096)
	order := dataset.NewRandomSampler(dataset.FullShard(d), 1).EpochOrder(0)
	const batch = 64
	fetchers := []struct {
		name string
		f    loader.Fetcher
	}{
		{"page-cache", loader.NewPageCacheFetcher(d, cl, d.TotalBytes/2, 1)},
		{"synthetic", loader.SyntheticFetcher{}},
		{"cached", &loader.CachedFetcher{Dataset: d, Cluster: cl}},
		{"tfrecord", loader.NewTFRecordFetcher(d, cl, d.TotalBytes/4, 16*d.AvgItemBytes(), 1)},
		{"minio", NewMinIOFetcher(d, cl, d.TotalBytes/2)},
		{"partitioned", NewPartitionedFetcher(d, cl, d.TotalBytes/4, 1)},
	}
	for _, tc := range fetchers {
		var ops []loader.Op
		next := 0
		plan := func() {
			items := order[next*batch : (next+1)*batch]
			next = (next + 1) % (len(order) / batch)
			_, ops = tc.f.Plan(next%2, items, ops[:0])
		}
		for i := 0; i < len(order)/batch; i++ {
			plan() // one epoch warms the caches to steady-state churn
		}
		if avg := testing.AllocsPerRun(200, plan); avg != 0 {
			t.Errorf("%s: Plan allocates %v allocs per batch, want 0", tc.name, avg)
		}
	}
}
