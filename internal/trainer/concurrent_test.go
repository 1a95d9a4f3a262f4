package trainer

import (
	"context"
	"slices"
	"strings"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
)

func TestCoordinatedMultiGPUJobs(t *testing.T) {
	// Fig 9(e)'s 4x2 shape: four 2-GPU jobs with coordinated prep.
	d := dataset.OpenImages.Scale(0.002)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 2,
		CacheBytes: d.TotalBytes, Batch: 128,
	}
	r, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: base, NumJobs: 4, GPUsPerJob: 2, Coordinated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 4 {
		t.Fatalf("jobs %d", len(r.Jobs))
	}
	for j, jr := range r.Jobs {
		if len(jr.Epochs) != 2 {
			t.Fatalf("job %d finished %d epochs", j, len(jr.Epochs))
		}
		// Each job sees the whole (truncated) dataset per epoch.
		if jr.Epochs[0].Samples == 0 {
			t.Fatalf("job %d consumed nothing", j)
		}
	}
}

func TestCoordUsePageCacheAblation(t *testing.T) {
	// "Coordinated prep alone" (Appendix E.2.3): coordination without
	// MinIO should beat independent jobs but read more disk than
	// coordination with MinIO.
	d := dataset.OpenImages.Scale(0.002)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 3,
		CacheBytes: 0.5 * d.TotalBytes, Batch: 128,
	}
	pagecacheCoord, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: base, NumJobs: 8, GPUsPerJob: 1,
		Coordinated: true, CoordUsePageCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	minioCoord, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: base, NumJobs: 8, GPUsPerJob: 1, Coordinated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if minioCoord.DiskPerEpoch >= pagecacheCoord.DiskPerEpoch {
		t.Fatalf("minio coord disk %.0f not below page-cache coord %.0f",
			minioCoord.DiskPerEpoch, pagecacheCoord.DiskPerEpoch)
	}
}

func TestDisableRemoteFetchAblation(t *testing.T) {
	// Without the remote path, distributed CoorDL falls back to local
	// storage on local misses — slower on HDD (§4.2's premise).
	d := dataset.OpenImages.Scale(0.003)
	run := func(disable bool) *Result {
		r, err := RunContext(context.Background(), Config{
			Model: gpu.MustByName("resnet18"), Dataset: d,
			Spec: cluster.ConfigHDD1080Ti(), NumServers: 2, Batch: 128,
			Loader: loader.CoorDL, CacheBytes: 0.65 * d.TotalBytes,
			DisableRemoteFetch: disable, Epochs: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	with := run(false)
	without := run(true)
	if with.EpochTime >= without.EpochTime {
		t.Fatalf("remote fetch (%.2fs) should beat local-only (%.2fs)",
			with.EpochTime, without.EpochTime)
	}
	if with.NetPerEpoch == 0 || without.NetPerEpoch > with.NetPerEpoch {
		t.Fatalf("network accounting wrong: with=%v without=%v",
			with.NetPerEpoch, without.NetPerEpoch)
	}
}

func TestTFRecordConcurrentReadAmplification(t *testing.T) {
	// Table 3's HP column: 8 jobs over record files amplify reads.
	records := &dataset.Dataset{Name: "recs", NumItems: 1000, TotalBytes: 1000 * 3e6}
	base := Config{
		Model: gpu.MustByName("resnet18"), Dataset: records,
		Spec: cluster.ConfigSSDV100(), Loader: loader.DALIShuffle,
		Batch: 8, CacheBytes: 0.35 * records.TotalBytes, Epochs: 3,
	}
	r, err := RunConcurrentContext(context.Background(), ConcurrentConfig{Base: base, NumJobs: 8, GPUsPerJob: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadAmplification < 3 {
		t.Fatalf("read amplification %.1f, want several x for 8 jobs", r.ReadAmplification)
	}
}

func TestConcurrentValidation(t *testing.T) {
	d := dataset.OpenImages.Scale(0.002)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Batch: 128,
	}
	if _, err := RunConcurrentContext(context.Background(), ConcurrentConfig{Base: base, NumJobs: 0, GPUsPerJob: 1}); err == nil {
		t.Fatal("zero jobs should fail")
	}
	if _, err := RunConcurrentContext(context.Background(), ConcurrentConfig{Base: base, NumJobs: 9, GPUsPerJob: 1}); err == nil {
		t.Fatal("9 jobs on 8 GPUs should fail")
	}
	if _, err := RunConcurrentContext(context.Background(), ConcurrentConfig{Base: base, NumJobs: 2, GPUsPerJob: 8}); err == nil {
		t.Fatal("16 GPUs on an 8-GPU server should fail")
	}
}

func TestCoordinatedDeterminism(t *testing.T) {
	d := dataset.OpenImages.Scale(0.002)
	cc := ConcurrentConfig{
		Base: Config{
			Model: gpu.MustByName("alexnet"), Dataset: d,
			Spec: cluster.ConfigSSDV100(), Epochs: 2,
			CacheBytes: 0.65 * d.TotalBytes, Batch: 128, Seed: 7,
		},
		NumJobs: 8, GPUsPerJob: 1, Coordinated: true,
	}
	a, err := RunConcurrentContext(context.Background(), cc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConcurrentContext(context.Background(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalDiskBytes != b.TotalDiskBytes ||
		a.Jobs[0].EpochTime != b.Jobs[0].EpochTime ||
		a.StagingPeakBytes != b.StagingPeakBytes {
		t.Fatal("coordinated run not deterministic")
	}
}

func TestStagingEvictionsComplete(t *testing.T) {
	// After a coordinated run every staged batch must have been evicted
	// (produced == evicted): nothing leaks across epochs.
	d := dataset.OpenImages.Scale(0.001)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 2,
		CacheBytes: d.TotalBytes, Batch: 64,
	}
	r, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: base, NumJobs: 4, GPUsPerJob: 1, Coordinated: true,
		TraceStagingMem: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.StagingTrace.Len(); n == 0 {
		t.Fatal("no staging activity")
	}
	last := r.StagingTrace.Values[r.StagingTrace.Len()-1]
	if last != 0 {
		t.Fatalf("staging not drained at end: %v bytes", last)
	}
}

// TestShardOrderKeepsTwoEpochs: a coordinated job keeps its last two epoch
// orders, each equal to a fresh sampler's, and writes epoch e over epoch
// e-2's buffer; asking for an epoch two behind the newest panics instead of
// overwriting an order a producer may still read.
func TestShardOrderKeepsTwoEpochs(t *testing.T) {
	d := dataset.OpenImages.Scale(0.001)
	cc, err := ConcurrentConfig{
		Base: Config{
			Model: gpu.MustByName("alexnet"), Dataset: d, Spec: cluster.ConfigSSDV100(),
			Epochs: 4, CacheBytes: d.TotalBytes, Batch: 128,
		},
		NumJobs: 2, GPUsPerJob: 1, Coordinated: true,
	}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	rt := newCoordRuntime(cc)
	orders := map[int][]dataset.ItemID{}
	for _, epoch := range []int{0, 1, 2, 1, 3} {
		got := rt.shardOrder(1, epoch)
		want := dataset.NewRandomSampler(rt.shards[1], cc.Base.Seed+977).EpochOrder(epoch)
		if !slices.Equal(got, want) {
			t.Fatalf("epoch %d: order differs from a fresh sampler's", epoch)
		}
		orders[epoch] = got
	}
	if &orders[2][0] != &orders[0][0] || &orders[3][0] != &orders[1][0] {
		t.Fatal("epochs 2 and 3 did not reuse the buffers of epochs 0 and 1")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "epoch 1 ") || !strings.Contains(msg, "epoch 3's") {
			t.Fatalf("shardOrder(1, 1) after epoch 3: panic %q, want one naming epochs 1 and 3", msg)
		}
	}()
	rt.shardOrder(1, 1)
}
