package experiments

import (
	"context"
	"strconv"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

func init() {
	register(&Experiment{
		ID:           "fig9a",
		Title:        "Single-server 8-GPU training: CoorDL vs DALI-seq/DALI-shuffle",
		Paper:        "up to 1.8x over DALI-seq on SSD; 2.1x/1.53x on HDD (ResNet50)",
		DefaultScale: 0.01,
		// The Table 1 model axis crossed with the loader sweep, speedups
		// as ratio columns. Cache budget 400 GiB, datasets per the
		// registry defaults.
		Spec: &Spec{
			Name:      "fig9a",
			Title:     "Single-server speedup over DALI baselines (Config-SSD-V100)",
			RowHeader: []string{"model", "dataset"},
			Base:      JobSpec{Server: "config-ssd-v100"},
			Rows: Axis{Cases: []Case{
				{Set: JobSpec{Model: "shufflenetv2"}},
				{Set: JobSpec{Model: "alexnet"}},
				{Set: JobSpec{Model: "resnet18"}},
				{Set: JobSpec{Model: "squeezenet"}},
				{Set: JobSpec{Model: "mobilenetv2"}},
				{Set: JobSpec{Model: "ssd-res18"}},
				{Set: JobSpec{Model: "audio-m5"}},
			}},
			Sweep: &Axis{Param: "loader", Values: rawStrings("dali-seq", "dali-shuffle", "coordl")},
			Columns: []Column{
				{Label: "dali-seq s", Metric: "epoch_s", Of: "dali-seq"},
				{Label: "dali-shuffle s", Metric: "epoch_s", Of: "dali-shuffle"},
				{Label: "coordl s", Metric: "epoch_s", Of: "coordl"},
				{Label: "vs seq", Metric: "epoch_s", Of: "dali-seq", Over: "coordl", Key: "speedup_seq_{row}"},
				{Label: "vs shuffle", Metric: "epoch_s", Of: "dali-shuffle", Over: "coordl", Key: "speedup_shuffle_{row}"},
			},
		},
	})
	register(&Experiment{
		ID:           "fig9b",
		Title:        "2-server distributed training: partitioned caching vs DALI",
		Paper:        "up to 15x on HDD (AlexNet); 1.3x ShuffleNet/IN22k, 2.9x M5 on SSD",
		DefaultScale: 0.006,
		// Model/dataset/SKU pairings follow §5.2: AlexNet and ResNet18 on
		// OpenImages over HDD servers (aggregate memory holds the
		// dataset); ShuffleNet/ImageNet-22k and M5/FMA on SSD servers.
		// Image models run batch 128 to keep several iterations per epoch
		// at small scale.
		Spec: &Spec{
			Name:      "fig9b",
			Title:     "2-server distributed training speedup (throughput, CoorDL vs DALI-shuffle)",
			RowHeader: []string{"model", "dataset", "server"},
			Base:      JobSpec{Servers: 2},
			Rows: Axis{Cases: []Case{
				{Cells: []string{"alexnet", "openimages", "1080ti"},
					Set: JobSpec{Model: "alexnet", Dataset: "openimages", Server: "config-hdd-1080ti", Batch: 128}},
				{Cells: []string{"resnet18", "openimages", "1080ti"},
					Set: JobSpec{Model: "resnet18", Dataset: "openimages", Server: "config-hdd-1080ti", Batch: 128}},
				{Cells: []string{"shufflenetv2", "imagenet-22k", "v100"},
					Set: JobSpec{Model: "shufflenetv2", Dataset: "imagenet-22k", Server: "config-ssd-v100", Batch: 128}},
				{Cells: []string{"audio-m5", "fma", "v100"},
					Set: JobSpec{Model: "audio-m5", Dataset: "fma", Server: "config-ssd-v100"}},
			}},
			Sweep: &Axis{Param: "loader", Values: rawStrings("dali-shuffle", "coordl")},
			Columns: []Column{
				{Label: "dali samp/s", Metric: "samples_per_s", Of: "dali-shuffle"},
				{Label: "coordl samp/s", Metric: "samples_per_s", Of: "coordl"},
				{Label: "speedup", Metric: "samples_per_s", Of: "coordl", Over: "dali-shuffle", Key: "speedup_{row}"},
			},
		},
	})
	register(&Experiment{
		ID:           "fig9d",
		Title:        "8-job HP search: coordinated prep vs DALI",
		Paper:        "3x AlexNet/ShuffleNet, 5.6x audio M5, 1.9x ResNet50",
		DefaultScale: 0.002,
		Run:          runFig9d,
	})
	register(&Experiment{
		ID:           "fig9e",
		Title:        "AlexNet HP-search job shapes: 8x1, 4x2, 2x4, 1x8 GPUs",
		Paper:        "coordination helps most with many concurrent jobs; 1 job = MinIO only",
		DefaultScale: 0.002,
		Run:          runFig9e,
	})
	register(&Experiment{
		ID:           "fig10",
		Title:        "ResNet50/ImageNet-1k time to 75.9% top-1 on 2 HDD servers",
		Paper:        "CoorDL reaches target in ~12h vs ~2 days for DALI (4x)",
		DefaultScale: 0.01,
		Run:          runFig10,
	})
	register(&Experiment{
		ID:           "fig11",
		Title:        "Disk I/O pattern over time: DALI vs CoorDL (ResNet18/OpenImages)",
		Paper:        "DALI's hits cluster early then it turns disk-bound; MinIO I/O is uniform and epochs end sooner",
		DefaultScale: 0.004,
		Run:          runFig11,
	})
	register(&Experiment{
		ID:           "table6",
		Title:        "Cache misses and disk I/O: DALI-seq/shuffle vs CoorDL (ShuffleNet/OpenImages)",
		Paper:        "misses 66%/53%/35%; disk I/O 422/340/225 GB",
		DefaultScale: 0.004,
		Run:          runTable6,
	})
	register(&Experiment{
		ID:           "table7",
		Title:        "HP search on fully-cached ImageNet-1k: per-job speedup",
		Paper:        "1.87x AlexNet ... 1.21x ResNet50 (eliminating redundant prep)",
		DefaultScale: 0.004,
		Run:          runTable7,
	})
	register(&Experiment{
		ID:           "fig17",
		Title:        "8-job HP search on ImageNet-22k",
		Paper:        "up to 2.5x speedup across the image models",
		DefaultScale: 0.0008,
		Run:          runFig17,
	})
	register(&Experiment{
		ID:           "fig18",
		Title:        "Partitioned-cache scalability: ResNet50/OpenImages on 1-4 HDD servers",
		Paper:        "DALI stays disk-bound (342/119/70/50 GB per node); CoorDL reads zero disk after epoch 1",
		DefaultScale: 0.002,
		// The server-count axis crossed with the loader sweep, per-node
		// disk I/O and speedup as derived columns.
		Spec: &Spec{
			Name:      "fig18",
			Title:     "ResNet50/OpenImages across 1-4 HDD servers",
			RowHeader: []string{"servers"},
			Base:      JobSpec{Model: "resnet50", Dataset: "openimages", Server: "config-hdd-1080ti"},
			Rows:      Axis{Param: "servers", Values: rawInts(1, 2, 3, 4)},
			Sweep:     &Axis{Param: "loader", Values: rawStrings("dali-shuffle", "coordl")},
			Columns: []Column{
				{Label: "dali samp/s", Metric: "samples_per_s", Of: "dali-shuffle"},
				{Label: "coordl samp/s", Metric: "samples_per_s", Of: "coordl"},
				{Label: "speedup", Metric: "samples_per_s", Of: "coordl", Over: "dali-shuffle", Key: "speedup_n{row}"},
				{Label: "dali disk GiB/node/ep", Metric: "disk_gib_per_node", Of: "dali-shuffle", Key: "dali_disk_n{row}"},
				{Label: "coordl disk GiB/node/ep", Metric: "disk_gib_per_node", Of: "coordl", Key: "coordl_disk_n{row}"},
			},
			Notes: "DALI per-node disk I/O falls with more nodes but stays disk-bound; CoorDL reads ~zero disk once the aggregate cache holds the dataset",
		},
	})
}

// hpSpeedups runs the 8x1-GPU HP-search comparison for the given models on
// their datasets (or a fixed dataset if fixed != nil).
func hpSpeedups(ctx context.Context, o Options, models []string, fixed *dataset.Dataset, fullyCached bool, r *Report) error {
	for _, name := range models {
		m := gpu.MustByName(name)
		var d *dataset.Dataset
		var cacheBytes float64
		if fixed != nil {
			d = fixed
			cacheBytes = d.TotalBytes
		} else {
			full, _ := dataset.ByName(m.DefaultDataset)
			d = full.Scale(o.Scale)
			cacheBytes = cacheFor(d, full, 400*stats.GiB)
		}
		base := trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			CacheBytes: cacheBytes, Epochs: o.Epochs, Seed: o.Seed,
		}
		if fullyCached {
			base.FetchMode = trainer.FullyCached
		}
		// Keep >= ~8 iterations per job per epoch at small scale without
		// falling into the batch-scaling penalty region.
		b := m.RefBatch(gpu.V100)
		if b > 256 {
			b = 256
		}
		for b > 8 && b > d.NumItems/8 {
			b /= 2
		}
		base.Batch = b
		indep, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: 8, GPUsPerJob: 1,
		})
		if err != nil {
			return err
		}
		coord, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: 8, GPUsPerJob: 1, Coordinated: true,
		})
		if err != nil {
			return err
		}
		sp := indep.Jobs[0].EpochTime / coord.Jobs[0].EpochTime
		r.Table.AddRow(name, indep.Jobs[0].SamplesPerSec, coord.Jobs[0].SamplesPerSec, sp,
			gib(indep.DiskPerEpoch), gib(coord.DiskPerEpoch))
		r.set("speedup_"+name, sp)
	}
	return nil
}

func runFig9d(ctx context.Context, o Options) (*Report, error) {
	r := &Report{Table: &stats.Table{
		Title:   "8-job HP search, Config-SSD-V100 (per-job throughput)",
		Columns: []string{"model", "dali samp/s", "coordl samp/s", "speedup", "dali disk GiB/ep", "coordl disk GiB/ep"},
	}}
	models := []string{"alexnet", "shufflenetv2", "resnet18", "resnet50", "audio-m5"}
	if err := hpSpeedups(ctx, o, models, nil, false, r); err != nil {
		return nil, err
	}
	return r, nil
}

func runFig9e(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("alexnet")
	full, _ := dataset.ByName("openimages")
	d := full.Scale(o.Scale)
	cacheBytes := cacheFor(d, full, 400*stats.GiB)
	r := &Report{Table: &stats.Table{
		Title:   "AlexNet/OpenImages HP-search shapes (aggregate samples/s)",
		Columns: []string{"config", "dali", "coordl", "speedup"},
	}}
	base := trainer.Config{
		Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
		CacheBytes: cacheBytes, Epochs: o.Epochs, Seed: o.Seed, Batch: 128,
	}
	shapes := []struct {
		jobs, gpus int
		label      string
	}{
		{8, 1, "8 jobs x 1 GPU"},
		{4, 2, "4 jobs x 2 GPU"},
		{2, 4, "2 jobs x 4 GPU"},
	}
	for _, sh := range shapes {
		indep, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: sh.jobs, GPUsPerJob: sh.gpus,
		})
		if err != nil {
			return nil, err
		}
		coord, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
			Base: base, NumJobs: sh.jobs, GPUsPerJob: sh.gpus, Coordinated: true,
		})
		if err != nil {
			return nil, err
		}
		di := aggThroughput(indep)
		co := aggThroughput(coord)
		r.Table.AddRow(sh.label, di, co, co/di)
		r.set("speedup_"+strconv.Itoa(sh.jobs)+"x"+strconv.Itoa(sh.gpus), co/di)
	}
	// 1 job x 8 GPUs: coordination is moot; the benefit is MinIO (§5.3).
	single := base
	single.GPUsPerServer = 8
	dali, err := mustRun(ctx, withLoader(single, loader.DALIShuffle))
	if err != nil {
		return nil, err
	}
	coordl, err := mustRun(ctx, withLoader(single, loader.CoorDL))
	if err != nil {
		return nil, err
	}
	r.Table.AddRow("1 job x 8 GPU", dali.Throughput, coordl.Throughput, coordl.Throughput/dali.Throughput)
	r.set("speedup_1x8", coordl.Throughput/dali.Throughput)
	return r, nil
}

func withLoader(cfg trainer.Config, k loader.Kind) trainer.Config {
	cfg.Loader = k
	return cfg
}

func aggThroughput(cr *trainer.ConcurrentResult) float64 {
	t := 0.0
	for _, j := range cr.Jobs {
		t += j.SamplesPerSec
	}
	return t
}

func runFig10(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet50")
	d := dataset.ImageNet1K.Scale(o.Scale)
	spec := cluster.ConfigHDD1080Ti()
	cacheBytes := 0.5 * d.TotalBytes // each server caches 50% (§5.4)
	r := &Report{Table: &stats.Table{
		Title:   "ResNet50 time-to-75.9% top-1, 16 GPUs / 2 HDD servers",
		Columns: []string{"loader", "epoch s (scaled)", "epochs to target", "hours (at paper scale)"},
	}}
	curve := trainer.ResNet50ImageNet
	epochsNeeded, _ := curve.EpochsToAccuracy(0.759)
	var hrs []float64
	for _, k := range []loader.Kind{loader.DALIShuffle, loader.CoorDL} {
		res, err := mustRun(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: spec, NumServers: 2,
			Loader: k, CacheBytes: cacheBytes, Epochs: o.Epochs, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Epoch time at paper scale = simulated epoch time / scale.
		fullEpoch := res.EpochTime / o.Scale
		h, _ := curve.TimeToAccuracy(fullEpoch, 0.759)
		hrs = append(hrs, h)
		r.Table.AddRow(k.String(), res.EpochTime, epochsNeeded, h)
	}
	r.set("dali_hours", hrs[0])
	r.set("coordl_hours", hrs[1])
	r.set("speedup", hrs[0]/hrs[1])
	return r, nil
}

func runFig11(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("resnet18")
	full, _ := dataset.ByName("openimages")
	d := full.Scale(o.Scale)
	cacheBytes := cacheFor(d, full, 400*stats.GiB)
	type trace struct {
		buckets []float64
		total   float64
		horizon float64
	}
	runT := func(k loader.Kind) (*trace, error) {
		res, err := trainer.RunContext(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			Loader: k, CacheBytes: cacheBytes, Epochs: 2,
			Seed: o.Seed,
		}, trainer.DiskTraceObserver())
		if err != nil {
			return nil, err
		}
		h := res.TotalTime
		w := h / 12
		return &trace{buckets: res.DiskTrace.Bucketize(w, h), total: res.TotalDiskBytes, horizon: h}, nil
	}
	dali, err := runT(loader.DALIShuffle)
	if err != nil {
		return nil, err
	}
	coordl, err := runT(loader.CoorDL)
	if err != nil {
		return nil, err
	}
	r := &Report{Table: &stats.Table{
		Title:   "Disk I/O per time window (MiB; 12 windows over each 2-epoch run)",
		Columns: []string{"window", "dali-shuffle", "coordl"},
	}}
	for i := 0; i < 12; i++ {
		r.Table.AddRow(i, dali.buckets[i]/stats.MiB, coordl.buckets[i]/stats.MiB)
	}
	r.set("dali_total_gib", gib(dali.total))
	r.set("coordl_total_gib", gib(coordl.total))
	r.set("coordl_runtime_frac", coordl.horizon/dali.horizon)
	// Uniformity: coefficient of variation of steady-epoch windows.
	r.set("coordl_cv", cv(coordl.buckets[6:]))
	r.set("dali_cv", cv(dali.buckets[6:]))
	r.Notes = "CoorDL's steady-state windows are more uniform and its run ends earlier"
	return r, nil
}

func cv(xs []float64) float64 {
	s := stats.Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, x := range xs {
		varsum += (x - s.Mean) * (x - s.Mean)
	}
	return sqrt(varsum/float64(len(xs))) / s.Mean
}

// sqrt is Newton's method rather than math.Sqrt on purpose: the two differ
// in the last bits, and math.Sqrt moves fig11's seed-1 coordl_cv, which the
// suite golden pins.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func runTable6(ctx context.Context, o Options) (*Report, error) {
	m := gpu.MustByName("shufflenetv2")
	full, _ := dataset.ByName("openimages")
	d := full.Scale(o.Scale)
	cacheBytes := 0.65 * d.TotalBytes
	r := &Report{Table: &stats.Table{
		Title:   "ShuffleNet/OpenImages, 65% cache, Config-SSD-V100",
		Columns: []string{"loader", "cache miss %", "disk IO (GiB/epoch)", "paper miss %", "paper IO (GB)"},
	}}
	paperMiss := map[loader.Kind]float64{loader.DALISeq: 66, loader.DALIShuffle: 53, loader.CoorDL: 35}
	paperIO := map[loader.Kind]float64{loader.DALISeq: 422, loader.DALIShuffle: 340, loader.CoorDL: 225}
	for _, k := range []loader.Kind{loader.DALISeq, loader.DALIShuffle, loader.CoorDL} {
		res, err := mustRun(ctx, trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			Loader: k, CacheBytes: cacheBytes, Epochs: o.Epochs, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		miss := pct(1 - res.HitRate)
		r.Table.AddRow(k.String(), miss, gib(res.DiskPerEpoch), paperMiss[k], paperIO[k])
		r.set("miss_"+k.String(), miss)
		r.set("diskgib_"+k.String(), gib(res.DiskPerEpoch))
	}
	return r, nil
}

func runTable7(ctx context.Context, o Options) (*Report, error) {
	d := dataset.ImageNet1K.Scale(o.Scale)
	r := &Report{Table: &stats.Table{
		Title:   "8-job HP search, ImageNet-1k fully cached (per-job samples/s)",
		Columns: []string{"model", "dali samp/s", "coordl samp/s", "speedup", "dali disk GiB/ep", "coordl disk GiB/ep"},
	}}
	models := []string{"shufflenetv2", "alexnet", "resnet18", "squeezenet", "mobilenetv2", "resnet50", "vgg11"}
	if err := hpSpeedups(ctx, o, models, d, true, r); err != nil {
		return nil, err
	}
	return r, nil
}

func runFig17(ctx context.Context, o Options) (*Report, error) {
	full := dataset.ImageNet22K
	d := full.Scale(o.Scale)
	r := &Report{Table: &stats.Table{
		Title:   "8-job HP search on ImageNet-22k (35% cache)",
		Columns: []string{"model", "dali samp/s", "coordl samp/s", "speedup", "dali disk GiB/ep", "coordl disk GiB/ep"},
	}}
	for _, name := range []string{"shufflenetv2", "alexnet", "resnet18"} {
		m := gpu.MustByName(name)
		base := trainer.Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			CacheBytes: 0.35 * d.TotalBytes, Epochs: o.Epochs, Seed: o.Seed, Batch: 128,
		}
		indep, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{Base: base, NumJobs: 8, GPUsPerJob: 1})
		if err != nil {
			return nil, err
		}
		coord, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{Base: base, NumJobs: 8, GPUsPerJob: 1, Coordinated: true})
		if err != nil {
			return nil, err
		}
		sp := indep.Jobs[0].EpochTime / coord.Jobs[0].EpochTime
		r.Table.AddRow(name, indep.Jobs[0].SamplesPerSec, coord.Jobs[0].SamplesPerSec, sp,
			gib(indep.DiskPerEpoch), gib(coord.DiskPerEpoch))
		r.set("speedup_"+name, sp)
	}
	return r, nil
}
