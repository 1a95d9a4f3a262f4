package trainer

import (
	"context"
	"errors"
	"math"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/stats"
)

// small returns a scaled dataset for fast end-to-end runs.
func small(d *dataset.Dataset, f float64) *dataset.Dataset { return d.Scale(f) }

func TestSyntheticMatchesIngestionRate(t *testing.T) {
	// DS-Analyzer phase 1: synthetic data at the GPUs -> throughput must
	// equal G x nGPUs within a small pipeline overhead.
	m := gpu.MustByName("resnet18")
	r, err := RunContext(context.Background(), Config{
		Model: m, Dataset: small(dataset.ImageNet1K, 0.02),
		Spec: cluster.ConfigSSDV100(), FetchMode: Synthetic, Epochs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := m.GV100 * 8
	if math.Abs(r.Throughput-want)/want > 0.02 {
		t.Fatalf("synthetic throughput %.0f, want ~%.0f", r.Throughput, want)
	}
	if r.StallFraction > 0.02 {
		t.Fatalf("synthetic run has stalls: %.3f", r.StallFraction)
	}
}

func TestFullyCachedPrepStall(t *testing.T) {
	// Fig 5/6: ResNet18 on 8 V100s with 3 cores/GPU has ~50% prep stall
	// even with DALI GPU prep; with 12+ cores/GPU the stall vanishes
	// (Fig 4).
	m := gpu.MustByName("resnet18")
	base := Config{
		Model: m, Dataset: small(dataset.ImageNet1K, 0.02),
		Spec: cluster.ConfigSSDV100(), FetchMode: FullyCached, Epochs: 3,
	}
	starved := base
	starved.ThreadsPerGPU = 3
	r, err := RunContext(context.Background(), starved)
	if err != nil {
		t.Fatal(err)
	}
	if r.StallFraction < 0.3 || r.StallFraction > 0.65 {
		t.Fatalf("3-core prep stall %.2f, want ~0.5", r.StallFraction)
	}

	// Fig 4 measures a single GPU as cores grow: 14 dedicated physical
	// cores mask ResNet18's prep entirely.
	rich := base
	rich.GPUsPerServer = 1
	rich.ThreadsPerGPU = 14
	r2, err := RunContext(context.Background(), rich)
	if err != nil {
		t.Fatal(err)
	}
	if r2.StallFraction > 0.08 {
		t.Fatalf("14-core prep stall %.2f, want ~0", r2.StallFraction)
	}
	// Per-GPU throughput must rise vs the starved run.
	if r2.Throughput <= r.Throughput/8 {
		t.Fatal("more cores must increase per-GPU throughput when prep-bound")
	}
}

func TestMinIOBeatsPageCacheEndToEnd(t *testing.T) {
	// Fig 9(a): on a fetch-bound single-server job, CoorDL's MinIO cache
	// outperforms the DALI baselines by eliminating thrashing.
	d := small(dataset.OpenImages, 0.004)
	run := func(k loader.Kind) *Result {
		r, err := RunContext(context.Background(), Config{
			Model: gpu.MustByName("shufflenetv2"), Dataset: d,
			Spec: cluster.ConfigSSDV100(), Loader: k, Epochs: 3,
			CacheBytes: 0.65 * d.TotalBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	coordl := run(loader.CoorDL)
	shuffle := run(loader.DALIShuffle)
	seq := run(loader.DALISeq)
	if coordl.EpochTime >= shuffle.EpochTime {
		t.Fatalf("CoorDL (%.1fs) not faster than DALI-shuffle (%.1fs)",
			coordl.EpochTime, shuffle.EpochTime)
	}
	if shuffle.EpochTime >= seq.EpochTime {
		t.Fatalf("DALI-shuffle (%.1fs) should beat DALI-seq (%.1fs)",
			shuffle.EpochTime, seq.EpochTime)
	}
	// MinIO steady-state hit rate = capacity ratio exactly.
	if math.Abs(coordl.HitRate-0.65) > 0.02 {
		t.Fatalf("MinIO hit rate %.3f, want 0.65", coordl.HitRate)
	}
	if shuffle.HitRate >= 0.60 {
		t.Fatalf("page cache hit rate %.3f should thrash below capacity", shuffle.HitRate)
	}
	// Speedup in the paper's 1.3-2.2x band.
	sp := seq.EpochTime / coordl.EpochTime
	if sp < 1.2 || sp > 3.5 {
		t.Fatalf("CoorDL vs DALI-seq speedup %.2f out of plausible band", sp)
	}
}

func TestPartitionedCachingEliminatesDiskIO(t *testing.T) {
	// §4.2: with aggregate memory >= dataset, the dataset is fetched from
	// storage exactly once (the first epoch) for the whole job.
	d := small(dataset.OpenImages, 0.004)
	r, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigHDD1080Ti(), Loader: loader.CoorDL,
		NumServers: 2, Epochs: 3, CacheBytes: 0.65 * d.TotalBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs[0].DiskBytes < 0.9*d.TotalBytes {
		t.Fatalf("warmup read %.0f bytes, want ~dataset (%.0f)",
			r.Epochs[0].DiskBytes, d.TotalBytes)
	}
	for i, e := range r.Epochs[1:] {
		if e.DiskBytes > 0.01*d.TotalBytes {
			t.Fatalf("epoch %d: %.0f disk bytes, want ~0", i+1, e.DiskBytes)
		}
		if e.NetBytes == 0 {
			t.Fatalf("epoch %d: no remote-cache traffic", i+1)
		}
	}
}

func TestDistributedCoorDLBeatsDALIOnHDD(t *testing.T) {
	// Fig 9(b): partitioned caching vs DALI on 2 HDD servers.
	d := small(dataset.OpenImages, 0.003)
	run := func(k loader.Kind) *Result {
		r, err := RunContext(context.Background(), Config{
			Model: gpu.MustByName("alexnet"), Dataset: d,
			Spec: cluster.ConfigHDD1080Ti(), Loader: k,
			NumServers: 2, Epochs: 3, CacheBytes: 0.65 * d.TotalBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	coordl := run(loader.CoorDL)
	dali := run(loader.DALIShuffle)
	sp := dali.EpochTime / coordl.EpochTime
	if sp < 5 {
		t.Fatalf("distributed HDD speedup %.1f, want >> 1", sp)
	}
	// CoorDL eliminates the I/O bound; AlexNet remains prep-limited on 3
	// cores/GPU (Fig 4 says it wants ~24) but far less stalled than the
	// disk-bound baseline.
	if coordl.StallFraction >= dali.StallFraction {
		t.Fatalf("CoorDL stall %.2f not below DALI %.2f",
			coordl.StallFraction, dali.StallFraction)
	}
}

func TestCoordinatedPrepSpeedsUpHPSearch(t *testing.T) {
	// Fig 9(d) / Fig 22: 8 concurrent 1-GPU jobs; coordinated prep
	// eliminates redundant fetch+prep.
	d := small(dataset.OpenImages, 0.002)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 3,
		CacheBytes: 0.65 * d.TotalBytes, Batch: 256,
	}
	indep, err := RunConcurrentContext(context.Background(), ConcurrentConfig{Base: base, NumJobs: 8, GPUsPerJob: 1})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := RunConcurrentContext(context.Background(), ConcurrentConfig{Base: base, NumJobs: 8, GPUsPerJob: 1, Coordinated: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := indep.Jobs[0].EpochTime / coord.Jobs[0].EpochTime
	if sp < 1.5 {
		t.Fatalf("coordinated-prep speedup %.2f, want > 1.5", sp)
	}
	// One sweep per epoch: coordinated disk I/O per epoch ~= capacity
	// misses of one pass; independent jobs amplify reads.
	if coord.DiskPerEpoch >= indep.DiskPerEpoch {
		t.Fatalf("coordinated disk/epoch %.0f not below independent %.0f",
			coord.DiskPerEpoch, indep.DiskPerEpoch)
	}
	if coord.ReadAmplification > 0.40 {
		t.Fatalf("coordinated read amplification %.2f, want ~0.35 (capacity misses)",
			coord.ReadAmplification)
	}
	if indep.ReadAmplification < 1.0 {
		t.Fatalf("independent read amplification %.2f, want > 1 (redundant I/O)",
			indep.ReadAmplification)
	}
}

func TestCoordinatedStagingMemoryBounded(t *testing.T) {
	// §5.5: coordinated prep's staging area stays within its ~5 GB cap.
	d := small(dataset.OpenImages, 0.001)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 2,
		CacheBytes: d.TotalBytes, Batch: 128,
	}
	cap := 2 * stats.GiB
	r, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: base, NumJobs: 4, GPUsPerJob: 1, Coordinated: true,
		StagingCapBytes: cap, TraceStagingMem: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.StagingPeakBytes > cap {
		t.Fatalf("staging peak %.0f exceeds cap %.0f", r.StagingPeakBytes, cap)
	}
	if r.StagingTrace == nil || r.StagingTrace.Len() == 0 {
		t.Fatal("staging trace missing")
	}
}

func TestCoordinatedFailureRecovery(t *testing.T) {
	// §4.3: killing one HP job mid-epoch must not wedge the others; the
	// failure detector hands the dead job's shard to a recovery producer.
	d := small(dataset.OpenImages, 0.001)
	base := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 2,
		CacheBytes: d.TotalBytes, Batch: 128,
	}
	r, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: base, NumJobs: 4, GPUsPerJob: 1, Coordinated: true,
		KillJob: 2, KillAfterBatches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DetectedFailures) != 1 || r.DetectedFailures[0] != 2 {
		t.Fatalf("detected failures %v, want [2]", r.DetectedFailures)
	}
	// Surviving jobs finished all epochs.
	for j, jr := range r.Jobs {
		if j == 2 {
			continue
		}
		if len(jr.Epochs) != base.Epochs {
			t.Fatalf("job %d finished %d epochs, want %d", j, len(jr.Epochs), base.Epochs)
		}
	}
}

func TestMultiGPUBarrierKeepsGPUsInLockstep(t *testing.T) {
	d := small(dataset.ImageNet1K, 0.01)
	r, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("resnet50"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), FetchMode: FullyCached, Epochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Epochs {
		if e.Samples == 0 || e.Duration <= 0 {
			t.Fatalf("bad epoch stats: %+v", e)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	var fe *FieldError
	if _, err := RunContext(context.Background(), Config{}); !errors.Is(err, ErrMissingModel) ||
		!errors.As(err, &fe) || fe.Field != "Model" {
		t.Fatalf("empty config: err = %v, want a *FieldError on Model", err)
	}
	if _, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("alexnet"), Dataset: dataset.ImageNet1K.Scale(0.001),
		Spec: cluster.ConfigSSDV100(), GPUsPerServer: 99,
	}); !errors.Is(err, ErrBadGPUs) || !errors.As(err, &fe) || fe.Field != "GPUsPerServer" {
		t.Fatalf("too many GPUs: err = %v, want a *FieldError on GPUsPerServer", err)
	}
	// Dataset smaller than one global batch.
	tiny := &dataset.Dataset{Name: "tiny", NumItems: 64, TotalBytes: 64 * 1000}
	if _, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("alexnet"), Dataset: tiny,
		Spec: cluster.ConfigSSDV100(),
	}); err == nil {
		t.Fatal("undersized dataset should fail")
	}
}

func TestLearningCurveReachesTarget(t *testing.T) {
	c := ResNet50ImageNet
	e, ok := c.EpochsToAccuracy(0.759)
	if !ok {
		t.Fatal("curve never reaches 75.9%")
	}
	if e < 70 || e > 95 {
		t.Fatalf("reaches 75.9%% at epoch %d, want ~85-90", e)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for i := 1; i <= 100; i++ {
		a := c.Accuracy(float64(i))
		if a < prev {
			t.Fatalf("accuracy decreased at epoch %d", i)
		}
		prev = a
	}
	if prev > c.FinalAccuracy() {
		t.Fatal("accuracy exceeded asymptote")
	}
}

func TestAccuracyTimeline(t *testing.T) {
	pts := ResNet50ImageNet.AccuracyTimeline(3600, 10)
	if len(pts) != 10 || pts[9].Hours != 10 {
		t.Fatalf("bad timeline: %+v", pts[len(pts)-1])
	}
	h, ok := ResNet50ImageNet.TimeToAccuracy(3600, 0.759)
	if !ok || h < 10 {
		t.Fatalf("time to accuracy %v ok=%v", h, ok)
	}
}

func TestDiskAndCPUTraces(t *testing.T) {
	d := small(dataset.OpenImages, 0.002)
	r, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("resnet18"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Loader: loader.CoorDL, Epochs: 2,
		CacheBytes: 0.5 * d.TotalBytes,
	}, DiskTraceObserver(), CPUTraceObserver())
	if err != nil {
		t.Fatal(err)
	}
	if r.DiskTrace == nil || r.DiskTrace.Len() == 0 {
		t.Fatal("disk trace missing")
	}
	if r.CPUTrace == nil || r.CPUTrace.Len() == 0 {
		t.Fatal("cpu trace missing")
	}
	if math.Abs(r.DiskTrace.Sum()-r.TotalDiskBytes) > 1 {
		t.Fatalf("trace sum %.0f != disk bytes %.0f", r.DiskTrace.Sum(), r.TotalDiskBytes)
	}
}

func TestDeterministicResults(t *testing.T) {
	d := small(dataset.OpenImages, 0.002)
	cfg := Config{
		Model: gpu.MustByName("shufflenetv2"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Loader: loader.DALIShuffle, Epochs: 2,
		CacheBytes: 0.5 * d.TotalBytes,
	}
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EpochTime != b.EpochTime || a.TotalDiskBytes != b.TotalDiskBytes {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v",
			a.EpochTime, a.TotalDiskBytes, b.EpochTime, b.TotalDiskBytes)
	}
}
