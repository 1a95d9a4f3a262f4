// Package datastall is a simulation library for analyzing and mitigating
// data stalls in DNN training, reproducing "Analyzing and Mitigating Data
// Stalls in DNN Training" (VLDB 2021).
//
// It provides:
//
//   - a deterministic discrete-event simulation of the DNN input pipeline
//     (storage, OS page cache, CPU pre-processing, GPUs, network);
//   - CoorDL, the paper's coordinated data loader: the MinIO cache,
//     partitioned caching for distributed jobs, and coordinated prep for
//     concurrent hyper-parameter-search jobs;
//   - DS-Analyzer: differential stall attribution and what-if prediction;
//   - runners for every table and figure in the paper's evaluation.
//
// Quick start (library):
//
//	res, err := datastall.TrainContext(ctx, datastall.TrainConfig{
//		Model:   "resnet18",
//		Dataset: "openimages",
//		Server:  datastall.ServerSSDV100,
//		Loader:  datastall.LoaderCoorDL,
//		CacheFraction: 0.35,
//		Scale:   0.01,
//	})
//
// Every run honors its context: cancellation (SIGINT in the CLIs, a
// deadline in a service) propagates into the simulation and returns
// ctx.Err() promptly, even mid-epoch. For streamed per-epoch progress and
// typed validation errors, embed the trainer package directly: build a
// trainer.Config, check it with Validate and run it with RunContext (see
// README.md, "Embedding the library").
// Declarative scenario sweeps — a base job plus parameter axes, as JSON —
// run via RunScenario or `runsuite -spec file.json`.
//
// Quick start (paper reproduction): RunSuite fans every registered
// table/figure experiment across a bounded worker pool, isolates failures,
// and reassembles results in experiment ID order:
//
//	rep, err := datastall.RunSuite(ctx, datastall.SuiteOptions{Parallel: 8})
//	jsonBytes, _ := rep.JSON(false) // machine-readable report
//
// Command-line entry points (go run ./cmd/<name>):
//
//   - runsuite: the full experiment suite in parallel; -json emits the suite
//     report, -md regenerates EXPERIMENTS.md, -ids selects a subset (one
//     experiment is -ids fig16), -cpuprofile/-memprofile profile the run.
//     CI runs "make suite" (this binary) and uploads the JSON report as an
//     artifact.
//   - dsanalyzer: differential stall profiles and what-if questions for one
//     model, or every model concurrently with -model all.
//   - coordlsim: one training job, epoch by epoch, under a chosen loader.
//
// Build, test, lint and bench via the Makefile ("make all"); CI runs the
// identical targets.
//
// All simulations are bit-deterministic for a given Seed — results are
// byte-identical for any worker count. Scale shrinks the dataset (and cache
// with it) so full experiments run in seconds while every ratio — hit rates,
// stall fractions, speedups — is preserved. The full-suite output is pinned
// by golden_test.go against testdata/golden-suite.json.
//
// Every training job runs on the one discrete-event simulator; a job's
// result is a function of its configuration alone, which is what lets the
// memo cache address results by content.
package datastall

import (
	"context"

	"datastall/internal/dataset"
	"datastall/internal/dsanalyzer"
	"datastall/internal/experiments"
	"datastall/internal/gpu"
	"datastall/internal/trainer"
)

// Server names one of the paper's server SKUs (Table 2).
type Server string

// Available server SKUs.
const (
	// ServerSSDV100 is Config-SSD-V100: 8xV100, 24 cores, 500 GiB DRAM,
	// SATA SSD, 40 GbE (like AWS p3.16xlarge).
	ServerSSDV100 Server = "config-ssd-v100"
	// ServerHDD1080Ti is Config-HDD-1080Ti: 8x1080Ti, magnetic storage
	// (like AWS p2.8xlarge with st1).
	ServerHDD1080Ti Server = "config-hdd-1080ti"
	// ServerHighCPUV100 is the Appendix B.1 SKU: 8xV100 with 32 cores /
	// 64 vCPUs.
	ServerHighCPUV100 Server = "highcpu-v100"
)

// Loader names a data-loading configuration.
type Loader string

// Available loaders.
const (
	// LoaderDALIShuffle is DALI with randomized reads — the paper's
	// strongest baseline and the default.
	LoaderDALIShuffle Loader = "dali-shuffle"
	// LoaderDALISeq is DALI's file-order reader.
	LoaderDALISeq Loader = "dali-seq"
	// LoaderPyTorch is the native PyTorch DataLoader.
	LoaderPyTorch Loader = "pytorch-dl"
	// LoaderCoorDL is the paper's coordinated loader (MinIO cache;
	// partitioned caching when NumServers > 1).
	LoaderCoorDL Loader = "coordl"
)

// Models returns the nine supported model names (Table 1).
func Models() []string {
	var out []string
	for _, m := range gpu.All() {
		out = append(out, m.Name)
	}
	return out
}

// Datasets returns the supported dataset names (Table 1).
func Datasets() []string {
	var out []string
	for _, d := range dataset.All() {
		out = append(out, d.Name)
	}
	return out
}

// TrainConfig describes one training job.
type TrainConfig struct {
	// Model is one of Models() (e.g. "resnet18").
	Model string
	// Dataset is one of Datasets(); empty selects the model's Table 1
	// dataset.
	Dataset string
	// Server selects the SKU (default ServerSSDV100).
	Server Server
	// Loader selects the data loader (default LoaderDALIShuffle).
	Loader Loader

	// NumServers > 1 runs data-parallel training across servers; with
	// LoaderCoorDL this enables partitioned caching.
	NumServers int
	// GPUs per server (default: all 8).
	GPUs int
	// Batch per GPU (default: the paper's reference batch).
	Batch int
	// Epochs to simulate (default 3; the first is cold-cache warmup).
	Epochs int
	// PrepThreadsPerGPU (default: fair share of the SKU's cores).
	PrepThreadsPerGPU int
	// PyTorchPrep selects the native (Pillow) pre-processing cost model
	// instead of DALI's.
	PyTorchPrep bool

	// CacheFraction sizes the per-server cache as a fraction of the
	// dataset (0 = the SKU's 400 GiB budget).
	CacheFraction float64
	// Scale shrinks the dataset for fast simulation (default 0.01).
	Scale float64
	// Seed drives all randomness (default 1).
	Seed int64
	// TraceDiskIO / TraceCPU collect time series (mapped onto the
	// trainer's DiskTraceObserver / CPUTraceObserver internally).
	TraceDiskIO bool
	TraceCPU    bool
}

// internal resolves c through the same JobSpec resolver spec cells use.
func (c TrainConfig) internal() (trainer.Config, error) {
	js := experiments.JobSpec{
		Model: c.Model, Dataset: c.Dataset,
		Server: string(c.Server), Loader: string(c.Loader),
		Servers: c.NumServers, GPUs: c.GPUs,
		Batch: c.Batch, Epochs: c.Epochs,
		ThreadsPerGPU: c.PrepThreadsPerGPU,
		CacheFraction: c.CacheFraction,
		Scale:         c.Scale, Seed: c.Seed,
	}
	if c.PyTorchPrep {
		js.Framework = "pytorch"
	}
	return js.Build(experiments.Options{Scale: 0.01})
}

// TrainResult reports a finished training job. Times are simulated seconds
// at the configured Scale; ratios (stall fractions, speedups, hit rates) are
// scale-invariant.
type TrainResult struct {
	// EpochSeconds is the steady-state epoch time (first epoch excluded).
	EpochSeconds float64
	// SamplesPerSecond is the steady-state training throughput.
	SamplesPerSecond float64
	// StallFraction is the share of epoch time the GPUs spent stalled on
	// data (the paper's headline metric).
	StallFraction float64
	// CacheHitRate is the steady-state cache hit rate.
	CacheHitRate float64
	// DiskGiBPerEpoch / NetGiBPerEpoch are steady-state I/O volumes.
	DiskGiBPerEpoch float64
	NetGiBPerEpoch  float64
	// Epochs holds per-epoch details, including the warmup epoch.
	Epochs []EpochDetail
	// DiskTrace / CPUTrace are (time, value) series when tracing was on.
	DiskTrace [][2]float64
	CPUTrace  [][2]float64
}

// EpochDetail is one epoch of a TrainResult.
type EpochDetail struct {
	Seconds       float64
	StallFraction float64
	DiskGiB       float64
	HitRate       float64
	Samples       int
}

const gib = 1024.0 * 1024 * 1024

func toResult(r *trainer.Result) *TrainResult {
	out := &TrainResult{
		EpochSeconds:     r.EpochTime,
		SamplesPerSecond: r.Throughput,
		StallFraction:    r.StallFraction,
		CacheHitRate:     r.HitRate,
		DiskGiBPerEpoch:  r.DiskPerEpoch / gib,
		NetGiBPerEpoch:   r.NetPerEpoch / gib,
	}
	for _, e := range r.Epochs {
		hr := 0.0
		if e.Hits+e.Misses > 0 {
			hr = float64(e.Hits) / float64(e.Hits+e.Misses)
		}
		out.Epochs = append(out.Epochs, EpochDetail{
			Seconds: e.Duration, StallFraction: e.StallFraction(),
			DiskGiB: e.DiskBytes / gib, HitRate: hr, Samples: e.Samples,
		})
	}
	if r.DiskTrace != nil {
		for i := range r.DiskTrace.Times {
			out.DiskTrace = append(out.DiskTrace, [2]float64{r.DiskTrace.Times[i], r.DiskTrace.Values[i]})
		}
	}
	if r.CPUTrace != nil {
		for i := range r.CPUTrace.Times {
			out.CPUTrace = append(out.CPUTrace, [2]float64{r.CPUTrace.Times[i], r.CPUTrace.Values[i]})
		}
	}
	return out
}

// TrainContext simulates one training job under ctx: cancellation (SIGINT
// in the CLIs, a deadline in a service) propagates into the simulation and
// returns ctx.Err() promptly.
func TrainContext(ctx context.Context, c TrainConfig) (*TrainResult, error) {
	cfg, err := c.internal()
	if err != nil {
		return nil, err
	}
	var obs []trainer.Observer
	if c.TraceDiskIO {
		obs = append(obs, trainer.DiskTraceObserver())
	}
	if c.TraceCPU {
		obs = append(obs, trainer.CPUTraceObserver())
	}
	r, err := trainer.RunContext(ctx, cfg, obs...)
	if err != nil {
		return nil, err
	}
	return toResult(r), nil
}

// HPSearchConfig describes concurrent hyper-parameter-search jobs on one
// server (§5.3).
type HPSearchConfig struct {
	// Job is the per-trial training setup (NumServers is ignored).
	Job TrainConfig
	// NumJobs concurrent jobs (default 8) of GPUsPerJob GPUs (default 1).
	NumJobs    int
	GPUsPerJob int
	// Coordinated enables CoorDL's coordinated prep; otherwise jobs run
	// independently (the DALI/PyTorch baseline).
	Coordinated bool
	// StagingGiB bounds the cross-job staging area (default 5).
	StagingGiB float64
}

// HPSearchResult reports a concurrent-jobs run.
type HPSearchResult struct {
	// PerJob holds each job's result.
	PerJob []*TrainResult
	// DiskGiBPerEpoch is aggregate steady-state storage I/O per epoch.
	DiskGiBPerEpoch float64
	// ReadAmplification is disk I/O per epoch over the dataset size; > 1
	// means the dataset is re-read multiple times per epoch (§3.3.1).
	ReadAmplification float64
	// StagingPeakGiB is the coordinated-prep staging high-water mark.
	StagingPeakGiB float64
}

// HPSearchContext simulates NumJobs concurrent jobs sharing one server,
// honoring ctx cancellation.
func HPSearchContext(ctx context.Context, c HPSearchConfig) (*HPSearchResult, error) {
	base, err := c.Job.internal()
	if err != nil {
		return nil, err
	}
	if c.NumJobs == 0 {
		c.NumJobs = 8
	}
	if c.GPUsPerJob == 0 {
		c.GPUsPerJob = 1
	}
	cc := trainer.ConcurrentConfig{
		Base: base, NumJobs: c.NumJobs, GPUsPerJob: c.GPUsPerJob,
		Coordinated: c.Coordinated,
	}
	if c.StagingGiB > 0 {
		cc.StagingCapBytes = c.StagingGiB * gib
	}
	r, err := trainer.RunConcurrentContext(ctx, cc)
	if err != nil {
		return nil, err
	}
	out := &HPSearchResult{
		DiskGiBPerEpoch:   r.DiskPerEpoch / gib,
		ReadAmplification: r.ReadAmplification,
		StagingPeakGiB:    r.StagingPeakBytes / gib,
	}
	for _, jr := range r.Jobs {
		out.PerJob = append(out.PerJob, toResult(jr))
	}
	return out, nil
}

// StallProfile is DS-Analyzer's differential profile (§3.2) plus what-if
// prediction handles (Appendix C).
type StallProfile struct {
	// GPURate, PrepRate, FetchRate are the three phases' throughputs in
	// samples/s (G, P, F).
	GPURate, PrepRate, FetchRate float64
	// PrepStallFraction / FetchStallFraction attribute epoch time.
	PrepStallFraction  float64
	FetchStallFraction float64
	// OptimalCacheFraction is the smallest cache that removes the I/O
	// bottleneck.
	OptimalCacheFraction float64

	p *dsanalyzer.Profile
}

// PredictThroughput returns the expected samples/s at cacheFraction.
func (s *StallProfile) PredictThroughput(cacheFraction float64) float64 {
	return s.p.PredictThroughput(cacheFraction)
}

// Bottleneck classifies training at cacheFraction as "gpu", "cpu" or "io".
func (s *StallProfile) Bottleneck(cacheFraction float64) string {
	return s.p.Bottleneck(cacheFraction)
}

// WhatIfGPUFaster predicts throughput with speedFactor-times-faster GPUs.
func (s *StallProfile) WhatIfGPUFaster(cacheFraction, speedFactor float64) float64 {
	return s.p.WhatIfGPUFaster(cacheFraction, speedFactor)
}

// WhatIfMoreCores predicts throughput with coreFactor-times the prep CPUs.
func (s *StallProfile) WhatIfMoreCores(cacheFraction, coreFactor float64) float64 {
	return s.p.WhatIfMoreCores(cacheFraction, coreFactor)
}

// CoresToMaskPrep returns the CPU-core multiplier (relative to the profiled
// configuration) needed for pre-processing to keep up with the GPUs (§3.4).
func (s *StallProfile) CoresToMaskPrep() float64 {
	return s.p.CoresToMaskPrep()
}

// AnalyzeStallsContext runs DS-Analyzer's three differential phases under
// ctx; cancellation aborts whichever phase is in flight.
func AnalyzeStallsContext(ctx context.Context, c TrainConfig) (*StallProfile, error) {
	cfg, err := c.internal()
	if err != nil {
		return nil, err
	}
	p, err := dsanalyzer.Analyze(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &StallProfile{
		GPURate: p.G, PrepRate: p.P, FetchRate: p.F,
		PrepStallFraction:    p.PrepStallFrac,
		FetchStallFraction:   p.FetchStallFrac,
		OptimalCacheFraction: p.OptimalCacheFrac(),
		p:                    p,
	}, nil
}
