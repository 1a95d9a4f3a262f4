// Package trainer runs simulated DNN training jobs: it wires the dataset
// sampler, fetcher, pre-processing pipeline and GPU consumers into a
// discrete-event simulation and reports per-epoch timing, stall, and I/O
// statistics. It implements both single/multi-server data-parallel jobs and
// concurrent hyper-parameter-search jobs (with or without CoorDL's
// coordinated prep).
//
// A job is described by one Config, checked by Config.Validate and run by
// RunContext:
//
//	cfg := trainer.Config{
//		Model: model, Dataset: ds, Spec: spec,
//		Epochs:     3,
//		Loader:     loader.CoorDL,
//		CacheBytes: 0.35 * ds.TotalBytes,
//	}
//	if err := cfg.Validate(); err != nil { ... } // typed *FieldError
//	res, err := trainer.RunContext(ctx, cfg, trainer.NewConsoleObserver(os.Stderr))
//
// Zero-valued fields mean "use the default" (Config.Resolved fills them
// in); Validate rejects negatives and impossible combinations with a
// *FieldError wrapping a sentinel like ErrBadGPUs, matchable with
// errors.Is. RunContext validates before it runs, executes under a
// context — the simulation polls it between events, so it returns
// ctx.Err() promptly even mid-epoch — and streams typed events to
// Observers (JobStarted, EpochStarted, EpochEnded with per-epoch stats and
// cache occupancy, JobEnded) as the simulation advances. The built-in
// DiskTraceObserver and CPUTraceObserver enable the Result's time-series
// traces. RunConcurrentContext runs an HP-search workload over the same
// Config and validator.
package trainer

import (
	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/prep"
	"datastall/internal/stats"
)

// FetchMode selects how data reaches the pipeline; the non-Normal modes are
// DS-Analyzer's differential phases (§3.2).
type FetchMode int

// Fetch modes.
const (
	// Normal fetches through the configured loader's cache hierarchy.
	Normal FetchMode = iota
	// Synthetic pre-populates data at the GPU: no fetch, no prep
	// (DS-Analyzer phase 1, measures pure ingestion rate G).
	Synthetic
	// FullyCached serves every item from DRAM (phase 2, isolates prep).
	FullyCached
)

// GPUPrepMode controls DALI's GPU-side pre-processing pipeline.
type GPUPrepMode int

// GPU prep modes.
const (
	// GPUPrepAuto picks the faster of CPU-only and GPU-assisted prep,
	// matching the paper's best-of methodology.
	GPUPrepAuto GPUPrepMode = iota
	GPUPrepOff
	GPUPrepOn
)

// Config describes one training job.
type Config struct {
	Model   *gpu.Model
	Dataset *dataset.Dataset
	Spec    cluster.ServerSpec

	// NumServers and GPUsPerServer size the job (weak scaling, §3.1).
	NumServers    int
	GPUsPerServer int

	// Batch is the per-GPU minibatch size (0 = the SKU's reference batch).
	Batch int
	// Epochs to run; the first epoch is cold-cache warmup and excluded
	// from steady-state metrics (§3.1).
	Epochs int

	// ThreadsPerGPU is the number of prep threads per GPU (0 = the SKU's
	// fair share: physical cores / GPUs).
	ThreadsPerGPU int
	// Framework selects DALI or the native PyTorch loader prep path.
	Framework prep.Framework
	// GPUPrep controls DALI GPU-side prep.
	GPUPrep GPUPrepMode

	// Loader picks the data-loading baseline or CoorDL.
	Loader loader.Kind
	// FetchMode overrides fetching for DS-Analyzer phases.
	FetchMode FetchMode
	// CacheBytes is the per-server cache capacity (0 = SKU default).
	CacheBytes float64
	// PrefetchDepth is the per-GPU staging queue depth in batches.
	PrefetchDepth int

	Seed int64

	// RecordBytes > 0 selects the TFRecord-style serialized format
	// (§3.3.3): items are packed into record files of this size, read
	// sequentially, cached at record granularity.
	RecordBytes float64
	// DisableRemoteFetch turns off partitioned caching's remote path in
	// distributed CoorDL jobs (ablation: local MinIO caches only).
	DisableRemoteFetch bool
}

// Resolved returns c with every zero-valued field replaced by the default
// RunContext applies. It does not validate; call Validate first.
func (c Config) Resolved() Config {
	if c.NumServers == 0 {
		c.NumServers = 1
	}
	if c.GPUsPerServer == 0 {
		c.GPUsPerServer = c.Spec.NumGPUs
	}
	if c.Batch == 0 {
		c.Batch = c.Model.RefBatch(c.Spec.Gen)
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.ThreadsPerGPU == 0 {
		c.ThreadsPerGPU = c.Spec.PhysicalCores / c.GPUsPerServer
		if c.ThreadsPerGPU < 1 {
			c.ThreadsPerGPU = 1
		}
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = c.Spec.CacheBytes
	}
	if c.PrefetchDepth == 0 {
		c.PrefetchDepth = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// prepConfig resolves the pre-processing configuration for one GPU's share
// of the job.
func (c Config) prepConfig() prep.Config {
	physPerGPU := c.Spec.PhysicalCores / c.GPUsPerServer
	if physPerGPU < 1 {
		physPerGPU = 1
	}
	if physPerGPU > c.ThreadsPerGPU {
		physPerGPU = c.ThreadsPerGPU
	}
	pc := prep.Config{
		Framework:     c.Framework,
		Threads:       c.ThreadsPerGPU,
		PhysicalCores: physPerGPU,
		NumGPUs:       1,
		Gen:           c.Spec.Gen,
	}
	switch c.GPUPrep {
	case GPUPrepOn:
		pc.GPUPrep = true
	case GPUPrepAuto:
		if c.Framework == prep.DALI {
			best := prep.BestConfig(c.Model, c.Spec.Gen, c.ThreadsPerGPU, physPerGPU,
				1, c.Batch, c.Dataset.AvgItemBytes())
			pc.GPUPrep = best.GPUPrep
		}
	}
	return pc
}

// EpochStats reports one epoch of one job.
type EpochStats struct {
	// Duration is wall-clock (simulated) epoch time in seconds.
	Duration float64
	// ComputeTime is the per-GPU busy time (compute + unoverlapped
	// communication) during the epoch.
	ComputeTime float64
	// StallTime = Duration - ComputeTime: unmasked data-stall time (§2).
	StallTime float64
	// I/O broken down by source.
	DiskBytes, NetBytes, MemBytes float64
	DiskReads                     int
	// Cache behaviour.
	Hits, Misses, RemoteHits int
	Samples                  int
	// CacheUsedBytes is the cache occupancy (bytes resident across the
	// job's caches) when the epoch ended; 0 for fetch paths with no cache
	// (Synthetic, FullyCached) and for the coordinated HP-search runtime.
	CacheUsedBytes float64
}

// StallFraction returns StallTime/Duration.
func (e EpochStats) StallFraction() float64 {
	if e.Duration == 0 {
		return 0
	}
	return e.StallTime / e.Duration
}

// Result reports a finished job.
type Result struct {
	Epochs []EpochStats

	// Steady-state metrics (average over epochs after the first).
	EpochTime     float64
	Throughput    float64 // samples/s
	StallFraction float64
	DiskPerEpoch  float64 // bytes
	NetPerEpoch   float64 // bytes
	HitRate       float64
	SamplesPerSec float64 // alias of Throughput

	// Traces (enabled via Config).
	DiskTrace *stats.TimeSeries
	CPUTrace  *stats.TimeSeries

	// TotalDiskBytes across the whole run (including warmup).
	TotalDiskBytes float64
	TotalNetBytes  float64
	TotalTime      float64

	// PrepBusySeconds is always 0; kept so memo entries and
	// golden-paths.json stay byte-identical.
	PrepBusySeconds float64
}

// steadyState fills the aggregate fields from Epochs.
func (r *Result) steadyState() {
	if len(r.Epochs) == 0 {
		return
	}
	start := 1
	if len(r.Epochs) == 1 {
		start = 0
	}
	n := 0.0
	for _, e := range r.Epochs[start:] {
		r.EpochTime += e.Duration
		r.DiskPerEpoch += e.DiskBytes
		r.NetPerEpoch += e.NetBytes
		r.StallFraction += e.StallFraction()
		if e.Hits+e.Misses > 0 {
			r.HitRate += float64(e.Hits) / float64(e.Hits+e.Misses)
		}
		r.Throughput += float64(e.Samples) / e.Duration
		n++
	}
	r.EpochTime /= n
	r.DiskPerEpoch /= n
	r.NetPerEpoch /= n
	r.StallFraction /= n
	r.HitRate /= n
	r.Throughput /= n
	r.SamplesPerSec = r.Throughput
}
