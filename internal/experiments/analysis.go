package experiments

import (
	"context"
	"strconv"

	"datastall/internal/cache"
	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/dsanalyzer"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/pagecache"
	"datastall/internal/prep"
	"datastall/internal/stats"
	"datastall/internal/storage"
	"datastall/internal/trainer"
)

func init() {
	register(&Experiment{
		ID:           "fig1",
		Title:        "ResNet18 data-pipeline component rates (8xV100, 24 cores)",
		Paper:        "HDD 15, SSD 530, cache-mix 802, CPU prep 735, hybrid prep 1062, GPU demand 2283 MB/s",
		DefaultScale: 1, // analytic: no training run
		Run:          runFig1,
	})
	register(&Experiment{
		ID:           "fig2",
		Title:        "Fetch stalls across 9 DNNs at 35% cache (Config-SSD-V100)",
		Paper:        "DNNs spend 10-70% of epoch time blocked on I/O",
		DefaultScale: 0.004,
		Run:          runFig2,
	})
	register(&Experiment{
		ID:           "fig3",
		Title:        "ResNet18 epoch split vs cache size (compute / ideal fetch / thrashing)",
		Paper:        "page cache fetches ~85% of the dataset at 35% cache (20pp thrashing)",
		DefaultScale: 0.02,
		Run:          runFig3,
	})
	register(&Experiment{
		ID:           "fig4",
		Title:        "Training throughput vs CPU prep threads per GPU",
		Paper:        "ResNet50 masks prep with 3-4 cores/GPU; ResNet18 ~12; AlexNet ~24",
		DefaultScale: 0.01,
		Run:          runFig4,
	})
	register(&Experiment{
		ID:           "fig5",
		Title:        "ResNet18 8-GPU prep stalls: DALI CPU vs GPU prep, V100 vs 1080Ti",
		Paper:        "GPU prep eliminates stalls on 1080Ti but leaves ~50% on V100",
		DefaultScale: 0.01,
		// The server axis crossed with the GPU-prep sweep. The GPU-prep
		// figure is the canonical small sweep, so it doubles as the
		// template for user-authored -spec files.
		Spec: &Spec{
			Name:      "fig5",
			Title:     "ResNet18 8-GPU prep stall %, 3 CPU threads/GPU, dataset cached",
			RowHeader: []string{"server"},
			Base: JobSpec{
				Model: "resnet18", Dataset: "imagenet-1k",
				ThreadsPerGPU: 3, FetchMode: "fully-cached",
			},
			Rows: Axis{Cases: []Case{
				{Cells: []string{"v100"}, Set: JobSpec{Server: "config-ssd-v100"}},
				{Cells: []string{"1080ti"}, Set: JobSpec{Server: "config-hdd-1080ti"}},
			}},
			Sweep: &Axis{Param: "gpu_prep", Values: rawStrings("off", "on")},
			Columns: []Column{
				{Label: "CPU prep", Metric: "stall_pct", Of: "off"},
				{Label: "CPU+GPU prep", Metric: "stall_pct", Of: "on", Key: "prep_stall_gpuprep_{row}"},
			},
		},
	})
	register(&Experiment{
		ID:           "fig6",
		Title:        "Prep stalls across DNNs (8 GPUs, 3 cores/GPU, dataset cached)",
		Paper:        "DNNs spend 5-65% of epoch time on blocking prep",
		DefaultScale: 0.004,
		Spec: &Spec{
			Name:      "fig6",
			Title:     "Prep stalls, 8 GPUs x 3 cores, Config-SSD-V100, dataset cached",
			RowHeader: []string{"model"},
			Base:      JobSpec{ThreadsPerGPU: 3, FetchMode: "fully-cached"},
			Rows:      Axis{Param: "model", Values: rawStrings(fig2Models...)},
			Columns: []Column{
				{Label: "prep stall %", Metric: "stall_pct", Key: "prep_stall_{row}"},
			},
		},
	})
	register(&Experiment{
		ID:           "table3",
		Title:        "TensorFlow TFRecord data stalls (miss rate, disk I/O, HP read amplification)",
		Paper:        "91-97% cache misses; 6.1-7.3x read amplification for 8-job HP search",
		DefaultScale: 0.02,
		Run:          runTable3,
	})
	register(&Experiment{
		ID:           "fig8",
		Title:        "MinIO vs OS page cache on the worked 4-item example",
		Paper:        "MinIO takes exactly capacity misses/epoch; LRU thrashes between 2-4",
		DefaultScale: 1,
		Run:          runFig8,
	})
	register(&Experiment{
		ID:           "fig12",
		Title:        "ResNet18 prep stall vs vCPUs per GPU (hyperthreading, Appendix B.1)",
		Paper:        "8 vCPUs/GPU still leaves ~37% prep stall; HT adds only ~30%",
		DefaultScale: 0.01,
		Run:          runFig12,
	})
	register(&Experiment{
		ID:           "fig13",
		Title:        "PyTorch DL vs DALI-CPU vs DALI-GPU epoch time (Appendix B.2)",
		Paper:        "DALI dominates PyTorch DL; GPU prep hurts ResNet50/VGG11",
		DefaultScale: 0.01,
		Run:          runFig13,
	})
	register(&Experiment{
		ID:           "fig14",
		Title:        "MobileNetV2 epoch time and prep stall vs batch size (Appendix B.3)",
		Paper:        "larger batches shrink compute but epoch time is pinned by prep",
		DefaultScale: 0.01,
		Run:          runFig14,
	})
}

// runFig1 derives the published pipeline rates from the calibrated component
// models (no simulation needed; this is the calibration anchor).
func runFig1(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	d := dataset.ImageNet1K
	avg := d.AvgItemBytes()
	const mb = 1024.0 * 1024

	hdd := storage.HDD.EffectiveRandomBW(avg)
	ssd := storage.SSD.EffectiveRandomBW(avg)
	memBW := cluster.ConfigSSDV100().MemBW
	// Effective fetch rate with 35% of the dataset cached (Fig 1's mix).
	mix := 1 / (0.35/memBW + 0.65/ssd)
	cpuPrep := 24 * m.PrepCPUBytes
	hybrid := cpuPrep + 8*m.PrepGPUBytesV100
	demand := 8 * m.GV100 * avg

	r := &Report{Table: &stats.Table{
		Title:   "Pipeline component rates (MB/s)",
		Columns: []string{"component", "modelled", "paper"},
	}}
	row := func(name string, v, paper float64, key string) {
		r.Table.AddRow(name, v/mb, paper)
		r.set(key, v/mb)
	}
	row("fetch: HDD random", hdd, 15, "hdd_mbps")
	row("fetch: SSD random", ssd, 530, "ssd_mbps")
	row("fetch: 35% cache + SSD", mix, 802, "mix_mbps")
	row("prep: 24-core DALI CPU", cpuPrep, 735, "cpu_prep_mbps")
	row("prep: CPU + 8-GPU hybrid", hybrid, 1062, "hybrid_prep_mbps")
	row("GPU ingestion demand", demand, 2283, "gpu_demand_mbps")
	return r, nil
}

// fig2Models lists the nine models in Table 1 order.
var fig2Models = []string{
	"shufflenetv2", "alexnet", "resnet18", "squeezenet",
	"mobilenetv2", "resnet50", "vgg11", "ssd-res18", "audio-m5",
}

func runFig2(ctx context.Context, o Options) (*Report, error) {
	r := &Report{Table: &stats.Table{
		Title:   "Fetch stalls at 35% cache, Config-SSD-V100",
		Columns: []string{"model", "dataset", "fetch stall %", "prep stall %"},
	}}
	for _, name := range fig2Models {
		m := gpu.MustByName(name)
		d := scaled(m, o)
		p, err := dsanalyzer.Analyze(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			Loader: loader.DALIShuffle, CacheBytes: 0.35 * d.TotalBytes,
			Epochs: o.Epochs, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		r.Table.AddRow(name, m.DefaultDataset, pct(p.FetchStallFrac), pct(p.PrepStallFrac))
		r.set("fetch_stall_"+name, pct(p.FetchStallFrac))
	}
	return r, nil
}

func runFig3(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	d := dataset.ImageNet1K.Scale(o.Scale)
	spec := cluster.ConfigSSDV100()
	r := &Report{Table: &stats.Table{
		Title:   "ResNet18 epoch time split vs cache size",
		Columns: []string{"cache %", "compute s", "ideal fetch stall s", "thrashing s", "% dataset fetched (page cache)"},
	}}
	syn, err := mustRun(ctx, trainer.Config{Model: m, Dataset: d, Spec: spec,
		FetchMode: trainer.Synthetic, Epochs: o.Epochs, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.20, 0.35, 0.50, 0.65, 0.80} {
		cacheBytes := frac * d.TotalBytes
		ideal, err := mustRun(ctx, trainer.Config{Model: m, Dataset: d, Spec: spec,
			Loader: loader.CoorDL, CacheBytes: cacheBytes, Epochs: o.Epochs, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		pc, err := mustRun(ctx, trainer.Config{Model: m, Dataset: d, Spec: spec,
			Loader: loader.DALIShuffle, CacheBytes: cacheBytes, Epochs: o.Epochs, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		idealStall := ideal.EpochTime - syn.EpochTime
		if idealStall < 0 {
			idealStall = 0
		}
		thrash := pc.EpochTime - ideal.EpochTime
		if thrash < 0 {
			thrash = 0
		}
		fetched := pct(pc.DiskPerEpoch / d.TotalBytes)
		r.Table.AddRow(pct(frac), syn.EpochTime, idealStall, thrash, fetched)
		if frac == 0.35 {
			r.set("fetched_pct_at_35", fetched)
			r.set("thrash_seconds_at_35", thrash)
		}
	}
	r.Notes = "at 35% cache an ideal cache fetches 65% of the dataset; the page cache fetches more (thrashing, §3.3.1)"
	return r, nil
}

func runFig4(ctx context.Context, o Options) (*Report, error) {
	r := &Report{Table: &stats.Table{
		Title:   "Per-GPU throughput (samples/s) vs CPU prep threads, dataset cached",
		Columns: []string{"model", "3", "6", "12", "24", "ingestion rate G"},
	}}
	for _, name := range []string{"resnet50", "mobilenetv2", "resnet18", "alexnet"} {
		m := gpu.MustByName(name)
		d := scaled(m, o)
		row := []interface{}{name}
		for _, cores := range []int{3, 6, 12, 24} {
			res, err := mustRun(ctx, trainer.Config{
				Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
				GPUsPerServer: 1, ThreadsPerGPU: cores,
				FetchMode: trainer.FullyCached, GPUPrep: trainer.GPUPrepOff,
				Epochs: o.Epochs, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, res.Throughput)
			if cores == 3 {
				r.set("throughput3_"+name, res.Throughput)
			}
			if cores == 24 {
				r.set("throughput24_"+name, res.Throughput)
			}
		}
		row = append(row, m.GV100)
		r.Table.AddRow(row...)
	}
	return r, nil
}

func runTable3(ctx context.Context, o Options) (*Report, error) {
	// TensorFlow serializes the dataset into ~1000 record files of
	// 100-200 MB and each job visits the records in its own shuffled
	// order (§3.3.3). The cache therefore operates at record granularity:
	// model records as the items of a derived dataset (record sizes scale
	// with o.Scale; the record *count* is what drives cache behaviour).
	records := &dataset.Dataset{
		Name:       "imagenet-1k-tfrecords",
		Task:       "image",
		NumItems:   1000,
		TotalBytes: dataset.ImageNet1K.TotalBytes * o.Scale,
	}
	spec := cluster.ConfigSSDV100()
	m := gpu.MustByName("resnet18")
	r := &Report{Table: &stats.Table{
		Title:   "TFRecord-format data stalls (TensorFlow, §3.3.3)",
		Columns: []string{"% cached", "8-GPU miss %", "HP disk IO (GiB/ep)", "HP read amp", "paper miss %", "paper amp"},
	}}
	paperMiss := map[float64]float64{0.50: 91, 0.35: 94, 0.25: 97}
	paperAmp := map[float64]float64{0.50: 6.14, 0.35: 7.21, 0.25: 7.28}
	for _, frac := range []float64{0.50, 0.35, 0.25} {
		base := trainer.Config{
			Model: m, Dataset: records, Spec: spec,
			Loader: loader.DALIShuffle, Batch: 8, // 8 records per iteration
			CacheBytes: frac * records.TotalBytes, Epochs: o.Epochs, Seed: o.Seed,
		}
		single, err := mustRun(ctx, base)
		if err != nil {
			return nil, err
		}
		missPct := pct(1 - single.HitRate)
		hp, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: 8, GPUsPerJob: 1,
		})
		if err != nil {
			return nil, err
		}
		r.Table.AddRow(pct(frac), missPct, gib(hp.DiskPerEpoch),
			hp.ReadAmplification, paperMiss[frac], paperAmp[frac])
		if frac == 0.35 {
			r.set("miss_pct_at_35", missPct)
			r.set("read_amp_at_35", hp.ReadAmplification)
		}
	}
	return r, nil
}

func runFig8(ctx context.Context, o Options) (*Report, error) {
	// The worked example: dataset {A,B,C,D}, cache of 2, two epochs.
	epochs := [][]dataset.ItemID{{2, 1, 0, 3}, {1, 2, 3, 0}}
	minio := cache.NewMinIO(2)
	lru := pagecache.New(pagecache.LRU, dataset.UniformSizes(1), 2, o.Seed)
	minio.Insert(3, 1) // warm with D, B as in Fig 8
	minio.Insert(1, 1)
	lru.Insert(3)
	lru.Insert(1)
	r := &Report{Table: &stats.Table{
		Title:   "Cache hits per epoch, 4-item dataset, capacity 2",
		Columns: []string{"epoch", "MinIO hits", "LRU hits"},
	}}
	for e, order := range epochs {
		minio.ResetStats()
		lru.ResetStats()
		for _, id := range order {
			if !minio.Lookup(id) {
				minio.Insert(id, 1)
			}
			if !lru.Lookup(id) {
				lru.Insert(id)
			}
		}
		r.Table.AddRow(e+1, minio.Hits(), lru.Hits())
		r.set("minio_hits_epoch"+strconv.Itoa(e+1), float64(minio.Hits()))
		r.set("lru_hits_epoch"+strconv.Itoa(e+1), float64(lru.Hits()))
	}
	return r, nil
}

func runFig12(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	d := dataset.ImageNet1K.Scale(o.Scale)
	spec := cluster.HighCPUV100() // 32 cores / 64 vCPUs (Appendix B.1)
	r := &Report{Table: &stats.Table{
		Title:   "ResNet18 8-GPU prep stall vs vCPUs per GPU (64-vCPU server)",
		Columns: []string{"vCPUs/GPU", "prep stall %", "throughput"},
	}}
	for _, threads := range []int{3, 4, 6, 8} {
		res, err := mustRun(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: spec, ThreadsPerGPU: threads,
			FetchMode: trainer.FullyCached, GPUPrep: trainer.GPUPrepOn,
			Epochs: o.Epochs, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		r.Table.AddRow(threads, pct(res.StallFraction), res.Throughput)
		if threads == 8 {
			r.set("prep_stall_8vcpu", pct(res.StallFraction))
		}
		if threads == 3 {
			r.set("prep_stall_3vcpu", pct(res.StallFraction))
		}
	}
	return r, nil
}

func runFig13(ctx context.Context, o Options) (*Report, error) {
	d := dataset.ImageNet1K.Scale(o.Scale)
	r := &Report{Table: &stats.Table{
		Title:   "Epoch time (s): PyTorch DL vs DALI CPU vs DALI GPU, dataset cached",
		Columns: []string{"model", "pytorch-dl", "dali-cpu", "dali-gpu"},
	}}
	for _, m := range gpu.ImageModels() {
		times := make([]float64, 0, 3)
		for _, variant := range []struct {
			fw   prep.Framework
			mode trainer.GPUPrepMode
		}{
			{prep.PyTorchNative, trainer.GPUPrepOff},
			{prep.DALI, trainer.GPUPrepOff},
			{prep.DALI, trainer.GPUPrepOn},
		} {
			res, err := mustRun(ctx, trainer.Config{
				Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
				ThreadsPerGPU: 3, Framework: variant.fw, GPUPrep: variant.mode,
				FetchMode: trainer.FullyCached, Epochs: o.Epochs, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
			times = append(times, res.EpochTime)
		}
		r.Table.AddRow(m.Name, times[0], times[1], times[2])
		r.set("pytorch_over_dali_"+m.Name, times[0]/times[1])
		r.set("dali_gpu_"+m.Name, times[2])
		r.set("dali_cpu_"+m.Name, times[1])
	}
	r.Notes = "GPU prep should win for prep-starved light models but lose for ResNet50/VGG11 (compute interference)"
	return r, nil
}

func runFig14(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("mobilenetv2")
	d, _ := dataset.ByName("openimages")
	d = d.Scale(o.Scale)
	r := &Report{Table: &stats.Table{
		Title:   "MobileNetV2 vs per-GPU batch size, dataset cached (8xV100, 3 cores/GPU)",
		Columns: []string{"batch", "compute s", "epoch s", "prep stall %"},
	}}
	for _, b := range []int{64, 128, 256, 512} {
		res, err := mustRun(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			Batch: b, ThreadsPerGPU: 3, FetchMode: trainer.FullyCached,
			Epochs: o.Epochs, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		compute := res.EpochTime * (1 - res.StallFraction)
		r.Table.AddRow(b, compute, res.EpochTime, pct(res.StallFraction))
		r.set("epoch_s_b"+strconv.Itoa(b), res.EpochTime)
		r.set("compute_s_b"+strconv.Itoa(b), compute)
	}
	r.Notes = "compute shrinks with batch size but epoch time is pinned by prep (Appendix B.3)"
	return r, nil
}
