package experiments

import (
	"context"
	"math"
	"strconv"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/dsanalyzer"
	"datastall/internal/gpu"
	"datastall/internal/hpsearch"
	"datastall/internal/loader"
	"datastall/internal/prep"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

func init() {
	register(&Experiment{
		ID:           "table5",
		Title:        "DS-Analyzer predicted vs empirical fetch-bound throughput",
		Paper:        "predictions within 4% of measurements at 25/35/50% cache",
		DefaultScale: 0.06,
		Run:          runTable5,
	})
	register(&Experiment{
		ID:           "fig16",
		Title:        "DS-Analyzer optimal-cache-size recommendation (AlexNet)",
		Paper:        "I/O-bound at small caches; ~55% of the dataset suffices, beyond which CPU binds",
		DefaultScale: 0.06,
		Run:          runFig16,
	})
	register(&Experiment{
		ID:           "fig19",
		Title:        "CPU utilization over time: DALI vs CoorDL (ResNet18/OpenImages)",
		Paper:        "DALI's prep threads sit idle waiting on I/O; CoorDL keeps them busy",
		DefaultScale: 0.004,
		Run:          runFig19,
	})
	register(&Experiment{
		ID:           "fig20",
		Title:        "Memory overhead of coordinated prep (staging area)",
		Paper:        "~5 GB of staging memory; total node memory use unchanged",
		DefaultScale: 0.002,
		Run:          runFig20,
	})
	register(&Experiment{
		ID:           "fig21",
		Title:        "Py-CoorDL (MinIO in the native PyTorch loader) vs PyTorch DL",
		Paper:        "2.1-3.3x on HDD; ~7% on SSD (prep-bound with Pillow decode)",
		DefaultScale: 0.01,
		// Rows are device x cache fraction; each row label ("hdd_35")
		// keys its speedup.
		Spec: &Spec{
			Name:      "fig21",
			Title:     "Py-CoorDL (native PyTorch + MinIO) vs PyTorch DL epoch time (s)",
			RowHeader: []string{"device", "cache %"},
			Base:      JobSpec{Model: "resnet18", Dataset: "imagenet-1k", Framework: "pytorch"},
			Rows: Axis{Cases: []Case{
				{Label: "hdd_35", Cells: []string{"hdd", "35.0"}, Set: JobSpec{Server: "config-hdd-1080ti", CacheFraction: 0.35}},
				{Label: "hdd_50", Cells: []string{"hdd", "50.0"}, Set: JobSpec{Server: "config-hdd-1080ti", CacheFraction: 0.50}},
				{Label: "hdd_65", Cells: []string{"hdd", "65.0"}, Set: JobSpec{Server: "config-hdd-1080ti", CacheFraction: 0.65}},
				{Label: "hdd_80", Cells: []string{"hdd", "80.0"}, Set: JobSpec{Server: "config-hdd-1080ti", CacheFraction: 0.80}},
				{Label: "ssd_35", Cells: []string{"ssd", "35.0"}, Set: JobSpec{Server: "config-ssd-v100", CacheFraction: 0.35}},
				{Label: "ssd_50", Cells: []string{"ssd", "50.0"}, Set: JobSpec{Server: "config-ssd-v100", CacheFraction: 0.50}},
				{Label: "ssd_65", Cells: []string{"ssd", "65.0"}, Set: JobSpec{Server: "config-ssd-v100", CacheFraction: 0.65}},
				{Label: "ssd_80", Cells: []string{"ssd", "80.0"}, Set: JobSpec{Server: "config-ssd-v100", CacheFraction: 0.80}},
			}},
			Sweep: &Axis{Param: "loader", Values: rawStrings("pytorch-dl", "coordl")},
			Columns: []Column{
				{Label: "pytorch-dl", Metric: "epoch_s", Of: "pytorch-dl"},
				{Label: "py-coordl", Metric: "epoch_s", Of: "coordl"},
				{Label: "speedup", Metric: "epoch_s", Of: "pytorch-dl", Over: "coordl", Key: "speedup_{row}"},
			},
			Notes: "HDD gains are large (I/O-bound); SSD gains are small because Pillow prep binds first (Appendix E.2.1)",
		},
	})
	register(&Experiment{
		ID:           "fig22",
		Title:        "Coordinated prep microbenchmark (4 and 8 PyTorch jobs, cached dataset)",
		Paper:        "1.8x per-job speedup for 8 jobs; stalls driven to ~0",
		DefaultScale: 0.004,
		Run:          runFig22,
	})
	register(&Experiment{
		ID:           "fig23",
		Title:        "End-to-end HP search (16 trials, successive halving) on HDD and SSD",
		Paper:        "coordinated prep alone up to 2.5x; with MinIO ~5.5x on HDD; smaller gains on SSD",
		DefaultScale: 0.004,
		Run:          runFig23,
	})
	register(&Experiment{
		ID:           "ablation-cache",
		Title:        "Ablation: cache policy (LRU / two-list / MinIO) on one fetch-bound job",
		Paper:        "design choice behind §4.1: insert-once beats recency policies for DNN access",
		DefaultScale: 0.004,
		// Page-cache policies via the DALI-shuffle path; MinIO via CoorDL.
		Spec: &Spec{
			Name:      "ablation-cache",
			Title:     "Cache-policy ablation (ShuffleNet/OpenImages, 50% cache, SSD)",
			RowHeader: []string{"policy"},
			Base:      JobSpec{Model: "shufflenetv2", Dataset: "openimages", CacheFraction: 0.5},
			Rows: Axis{Cases: []Case{
				{Label: "dali-shuffle", Cells: []string{"twolist (page cache)"}, Set: JobSpec{Loader: "dali-shuffle"}},
				{Label: "coordl", Cells: []string{"minio (insert-once)"}, Set: JobSpec{Loader: "coordl"}},
			}},
			Columns: []Column{
				{Label: "hit rate %", Metric: "hit_pct", Key: "hit_{row}"},
				{Label: "epoch s", Metric: "epoch_s"},
			},
			Notes: "MinIO hits = capacity ratio exactly; recency policies thrash below it",
		},
	})
	register(&Experiment{
		ID:           "ablation-remote",
		Title:        "Ablation: partitioned caching with and without the remote-fetch path",
		Paper:        "design choice behind §4.2: remote DRAM beats local storage on misses",
		DefaultScale: 0.003,
		Spec: &Spec{
			Name:      "ablation-remote",
			Title:     "Partitioned caching ablation (2 HDD servers)",
			RowHeader: []string{"variant"},
			Base: JobSpec{
				Model: "resnet18", Dataset: "openimages", Server: "config-hdd-1080ti",
				Servers: 2, Loader: "coordl", CacheFraction: 0.65,
			},
			Rows: Axis{Cases: []Case{
				{Label: "remote", Cells: []string{"partitioned (remote fetch)"}},
				{Label: "local", Cells: []string{"local MinIO only"}, Set: JobSpec{DisableRemoteFetch: true}},
			}},
			Columns: []Column{
				{Label: "epoch s", Metric: "epoch_s", Key: "{row}_epoch_s"},
				{Label: "disk GiB/epoch", Metric: "disk_gib_per_epoch"},
				{Label: "net GiB/epoch", Metric: "net_gib_per_epoch"},
			},
		},
	})
	register(&Experiment{
		ID:           "ablation-staging",
		Title:        "Ablation: coordinated-prep staging capacity",
		Paper:        "design choice behind §4.3: a few GB of staging suffice",
		DefaultScale: 0.002,
		Run:          runAblationStaging,
	})
	register(&Experiment{
		ID:           "ablation-prefetch",
		Title:        "Ablation: prefetch pipeline depth",
		Paper:        "design choice behind §2's pipelined prefetching",
		DefaultScale: 0.004,
		Spec: &Spec{
			Name:      "ablation-prefetch",
			Title:     "Prefetch-depth ablation (CoorDL, ShuffleNet/OpenImages)",
			RowHeader: []string{"depth"},
			Base:      JobSpec{Model: "shufflenetv2", Dataset: "openimages", Loader: "coordl", CacheFraction: 0.65},
			Rows:      Axis{Param: "prefetch_depth", Values: rawInts(1, 2, 3, 6)},
			Columns: []Column{
				{Label: "epoch s", Metric: "epoch_s", Key: "epoch_s_depth{row}"},
				{Label: "stall %", Metric: "stall_pct"},
			},
		},
	})
}

func runTable5(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("alexnet")
	d := dataset.ImageNet1K.Scale(o.Scale)
	spec := cluster.ConfigSSDV100()
	p, err := dsanalyzer.Analyze(ctx, trainer.Config{
		Model: m, Dataset: d, Spec: spec, Loader: loader.CoorDL,
		CacheBytes: 0.35 * d.TotalBytes, Epochs: o.Epochs, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	r := &Report{Table: &stats.Table{
		Title:   "Predicted vs empirical training speed (samples/s), AlexNet",
		Columns: []string{"% cached", "predicted", "empirical", "error %"},
	}}
	for _, frac := range []float64{0.25, 0.35, 0.50} {
		pred := p.PredictThroughput(frac)
		res, err := mustRun(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: spec, Loader: loader.CoorDL,
			CacheBytes: frac * d.TotalBytes, Epochs: o.Epochs, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		errPct := pct(math.Abs(pred-res.Throughput) / res.Throughput)
		r.Table.AddRow(pct(frac), pred, res.Throughput, errPct)
		r.set("error_pct_"+strconv.Itoa(int(frac*100)), errPct)
	}
	return r, nil
}

func runFig16(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("alexnet")
	d := dataset.ImageNet1K.Scale(o.Scale)
	spec := cluster.ConfigSSDV100()
	p, err := dsanalyzer.Analyze(ctx, trainer.Config{
		Model: m, Dataset: d, Spec: spec, Loader: loader.CoorDL,
		CacheBytes: 0.35 * d.TotalBytes, Epochs: o.Epochs, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	r := &Report{Table: &stats.Table{
		Title:   "Predicted throughput and bottleneck vs cache size (AlexNet)",
		Columns: []string{"cache %", "predicted samp/s", "bottleneck"},
	}}
	for _, x := range []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0} {
		r.Table.AddRow(pct(x), p.PredictThroughput(x), p.Bottleneck(x))
	}
	opt := p.OptimalCacheFrac()
	r.set("optimal_cache_pct", pct(opt))
	r.set("g", p.G)
	r.set("p", p.P)
	r.Notes = "recommended cache fraction: " + stats.FormatFloat(pct(opt)) + "%"
	return r, nil
}

func runFig19(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	full, _ := dataset.ByName("openimages")
	d := full.Scale(o.Scale)
	cacheBytes := cacheFor(d, full, 400*stats.GiB)
	spec := cluster.ConfigSSDV100()
	util := func(k loader.Kind) ([]float64, float64, error) {
		res, err := trainer.RunContext(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: spec, Loader: k,
			CacheBytes: cacheBytes, Epochs: 2, Seed: o.Seed,
		}, trainer.CPUTraceObserver())
		if err != nil {
			return nil, 0, err
		}
		h := res.TotalTime
		w := h / 10
		buckets := res.CPUTrace.Bucketize(w, h)
		out := make([]float64, len(buckets))
		for i, b := range buckets {
			out[i] = pct(b / (w * float64(spec.PhysicalCores)))
		}
		return out, res.CPUTrace.Sum() / h / float64(spec.PhysicalCores), nil
	}
	daliU, daliAvg, err := util(loader.DALIShuffle)
	if err != nil {
		return nil, err
	}
	coordlU, coordlAvg, err := util(loader.CoorDL)
	if err != nil {
		return nil, err
	}
	r := &Report{Table: &stats.Table{
		Title:   "CPU utilization % per time window (10 windows per run)",
		Columns: []string{"window", "dali", "coordl"},
	}}
	for i := range daliU {
		r.Table.AddRow(i, daliU[i], coordlU[i])
	}
	r.set("dali_avg_util", pct(daliAvg))
	r.set("coordl_avg_util", pct(coordlAvg))
	return r, nil
}

func runFig20(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("alexnet")
	full, _ := dataset.ByName("openimages")
	d := full.Scale(o.Scale)
	base := trainer.Config{
		Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
		CacheBytes: cacheFor(d, full, 400*stats.GiB),
		Epochs:     2, Seed: o.Seed, Batch: 128,
	}
	res, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
		Base: base, NumJobs: 8, GPUsPerJob: 1, Coordinated: true,
		StagingCapBytes: 5 * stats.GiB, TraceStagingMem: true,
	})
	if err != nil {
		return nil, err
	}
	r := &Report{Table: &stats.Table{
		Title:   "Coordinated-prep staging memory",
		Columns: []string{"metric", "value"},
	}}
	r.Table.AddRow("staging peak (GiB)", gib(res.StagingPeakBytes))
	r.Table.AddRow("staging cap (GiB)", 5.0)
	r.Table.AddRow("trace points", float64(res.StagingTrace.Len()))
	r.set("staging_peak_gib", gib(res.StagingPeakBytes))
	r.Notes = "cache budget is reduced by the staging footprint so total node memory stays constant (§5.5)"
	return r, nil
}

func runFig22(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	d := dataset.ImageNet1K.Scale(o.Scale)
	r := &Report{Table: &stats.Table{
		Title:   "Coordinated prep microbenchmark (PyTorch prep, dataset cached)",
		Columns: []string{"jobs x workers", "pytorch epoch s", "py-coordl epoch s", "speedup"},
	}}
	for _, sh := range []struct{ jobs, workers int }{{4, 6}, {8, 3}} {
		base := trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			Framework: prep.PyTorchNative, FetchMode: trainer.FullyCached,
			ThreadsPerGPU: sh.workers, Epochs: o.Epochs, Seed: o.Seed,
		}
		indep, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: sh.jobs, GPUsPerJob: 1,
		})
		if err != nil {
			return nil, err
		}
		coord, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: sh.jobs, GPUsPerJob: 1, Coordinated: true,
		})
		if err != nil {
			return nil, err
		}
		sp := indep.Jobs[0].EpochTime / coord.Jobs[0].EpochTime
		r.Table.AddRow(strconv.Itoa(sh.jobs)+"x"+strconv.Itoa(sh.workers),
			indep.Jobs[0].EpochTime, coord.Jobs[0].EpochTime, sp)
		r.set("speedup_"+strconv.Itoa(sh.jobs)+"jobs", sp)
	}
	return r, nil
}

func runFig23(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	d := dataset.ImageNet1K.Scale(o.Scale)
	r := &Report{Table: &stats.Table{
		Title:   "End-to-end HP search: 16 trials, 8 GPUs, successive halving",
		Columns: []string{"device", "variant", "search time s", "disk TiB", "speedup"},
	}}
	for _, spec := range []cluster.ServerSpec{cluster.ConfigHDD1080Ti(), cluster.ConfigSSDV100()} {
		base := trainer.Config{
			Model: m, Dataset: d, Spec: spec, Framework: prep.PyTorchNative,
			CacheBytes: 0.75 * d.TotalBytes, Seed: o.Seed, Batch: 128,
		}
		variants := []struct {
			name  string
			coord bool
			pgc   bool
		}{
			{"pytorch-dl", false, false},
			{"coordinated prep", true, true}, // coordination without MinIO
			{"py-coordl (coord + minio)", true, false},
		}
		var baseTime float64
		for _, v := range variants {
			// Two epochs per rung: the first wave epoch is cold-cache
			// warmup, so the caching policies differentiate (the paper's
			// long-lived server keeps its cache warm across trials).
			sr, err := hpsearch.Run(ctx, hpsearch.Config{
				Base: base, NumTrials: 16, ParallelJobs: 8,
				EpochsPerRung: 2,
				Coordinated:   v.coord, CoordUsePageCache: v.pgc, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
			if baseTime == 0 {
				baseTime = sr.SearchSeconds
			}
			r.Table.AddRow(spec.Disk.Name, v.name, sr.SearchSeconds,
				sr.TotalDiskBytes/stats.TiB, baseTime/sr.SearchSeconds)
			key := "speedup_" + spec.Disk.Name + "_" + keyify(v.name)
			r.set(key, baseTime/sr.SearchSeconds)
		}
	}
	return r, nil
}

func keyify(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	return string(out)
}

func runAblationStaging(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("alexnet")
	full, _ := dataset.ByName("openimages")
	d := full.Scale(o.Scale)
	base := trainer.Config{
		Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
		CacheBytes: cacheFor(d, full, 400*stats.GiB),
		Epochs:     2, Seed: o.Seed, Batch: 128,
	}
	r := &Report{Table: &stats.Table{
		Title:   "Staging-capacity ablation (8-job coordinated prep)",
		Columns: []string{"cap (GiB)", "per-job epoch s", "peak staged GiB"},
	}}
	for _, capGiB := range []float64{0.5, 1, 2, 5} {
		res, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: 8, GPUsPerJob: 1, Coordinated: true,
			StagingCapBytes: capGiB * stats.GiB,
		})
		if err != nil {
			return nil, err
		}
		r.Table.AddRow(capGiB, res.Jobs[0].EpochTime, gib(res.StagingPeakBytes))
		r.set("epoch_s_cap"+strconv.Itoa(int(capGiB*10)), res.Jobs[0].EpochTime)
	}
	return r, nil
}
