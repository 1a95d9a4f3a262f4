// Benchmarks regenerate every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index). Each benchmark runs the full
// simulated experiment and reports its headline metric via b.ReportMetric,
// so `go test -bench=. -benchmem` doubles as the reproduction harness:
//
//	go test -bench=Fig9a -benchmem
//
// Scales are small (ratios are scale-invariant); run at paper scale with
// cmd/runsuite -scale 1 when you have hours.
package datastall_test

import (
	"context"
	"testing"

	"datastall"
)

// benchExperiment runs one registered experiment per iteration and reports
// the named values as benchmark metrics.
func benchExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	var rep *datastall.ExperimentReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = datastall.RunExperiment(context.Background(), id, datastall.ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for key, unit := range metrics {
		if v, ok := rep.Values[key]; ok {
			b.ReportMetric(v, unit)
		} else {
			b.Fatalf("experiment %s missing metric %s", id, key)
		}
	}
}

func BenchmarkFig1PipelineRates(b *testing.B) {
	benchExperiment(b, "fig1", map[string]string{
		"gpu_demand_mbps": "gpu-MB/s",
		"cpu_prep_mbps":   "prep-MB/s",
	})
}

func BenchmarkFig2FetchStalls(b *testing.B) {
	benchExperiment(b, "fig2", map[string]string{
		"fetch_stall_audio-m5": "audio-stall-%",
		"fetch_stall_resnet50": "rn50-stall-%",
	})
}

func BenchmarkFig3CacheSweep(b *testing.B) {
	benchExperiment(b, "fig3", map[string]string{
		"fetched_pct_at_35": "fetched-%",
	})
}

func BenchmarkFig4CPUSweep(b *testing.B) {
	benchExperiment(b, "fig4", map[string]string{
		"throughput24_alexnet": "alexnet-24core-samp/s",
	})
}

func BenchmarkFig5DALIPrep(b *testing.B) {
	benchExperiment(b, "fig5", map[string]string{
		"prep_stall_gpuprep_v100":   "v100-stall-%",
		"prep_stall_gpuprep_1080ti": "1080ti-stall-%",
	})
}

func BenchmarkFig6PrepStalls(b *testing.B) {
	benchExperiment(b, "fig6", map[string]string{
		"prep_stall_resnet18": "rn18-stall-%",
	})
}

func BenchmarkTable3TFRecord(b *testing.B) {
	benchExperiment(b, "table3", map[string]string{
		"miss_pct_at_35": "miss-%",
		"read_amp_at_35": "read-amp-x",
	})
}

func BenchmarkFig9aSingleServer(b *testing.B) {
	benchExperiment(b, "fig9a", map[string]string{
		"speedup_seq_shufflenetv2":     "shufflenet-vs-seq-x",
		"speedup_shuffle_shufflenetv2": "shufflenet-vs-shuffle-x",
	})
}

func BenchmarkFig9bDistributed(b *testing.B) {
	benchExperiment(b, "fig9b", map[string]string{
		"speedup_alexnet":  "alexnet-hdd-x",
		"speedup_audio-m5": "m5-ssd-x",
	})
}

func BenchmarkFig9dHPSearch(b *testing.B) {
	benchExperiment(b, "fig9d", map[string]string{
		"speedup_alexnet":  "alexnet-x",
		"speedup_audio-m5": "m5-x",
	})
}

func BenchmarkFig9eHPConfigs(b *testing.B) {
	benchExperiment(b, "fig9e", map[string]string{
		"speedup_8x1": "8x1-x",
		"speedup_1x8": "1x8-x",
	})
}

func BenchmarkFig10TimeToAccuracy(b *testing.B) {
	benchExperiment(b, "fig10", map[string]string{
		"speedup":      "tta-speedup-x",
		"coordl_hours": "coordl-hours",
	})
}

func BenchmarkFig11IOPattern(b *testing.B) {
	benchExperiment(b, "fig11", map[string]string{
		"coordl_total_gib": "coordl-GiB",
		"dali_total_gib":   "dali-GiB",
	})
}

func BenchmarkTable5Prediction(b *testing.B) {
	benchExperiment(b, "table5", map[string]string{
		"error_pct_35": "pred-err-%",
	})
}

func BenchmarkTable6CacheMisses(b *testing.B) {
	benchExperiment(b, "table6", map[string]string{
		"miss_coordl":       "coordl-miss-%",
		"miss_dali-shuffle": "shuffle-miss-%",
		"miss_dali-seq":     "seq-miss-%",
	})
}

func BenchmarkTable7FullyCachedHP(b *testing.B) {
	benchExperiment(b, "table7", map[string]string{
		"speedup_alexnet":  "alexnet-x",
		"speedup_resnet50": "rn50-x",
	})
}

func BenchmarkFig12VCPUSweep(b *testing.B) {
	benchExperiment(b, "fig12", map[string]string{
		"prep_stall_8vcpu": "8vcpu-stall-%",
	})
}

func BenchmarkFig13LoaderCompare(b *testing.B) {
	benchExperiment(b, "fig13", map[string]string{
		"pytorch_over_dali_resnet18": "pytorch-over-dali-x",
	})
}

func BenchmarkFig14BatchSize(b *testing.B) {
	benchExperiment(b, "fig14", map[string]string{
		"epoch_s_b64":  "b64-epoch-s",
		"epoch_s_b512": "b512-epoch-s",
	})
}

func BenchmarkFig16OptimalCache(b *testing.B) {
	benchExperiment(b, "fig16", map[string]string{
		"optimal_cache_pct": "optimal-cache-%",
	})
}

func BenchmarkFig17HPIN22k(b *testing.B) {
	benchExperiment(b, "fig17", map[string]string{
		"speedup_shufflenetv2": "shufflenet-x",
	})
}

func BenchmarkFig18Scalability(b *testing.B) {
	benchExperiment(b, "fig18", map[string]string{
		"speedup_n2":   "n2-x",
		"speedup_n4":   "n4-x",
		"dali_disk_n2": "dali-n2-GiB",
	})
}

func BenchmarkFig19CPUUtil(b *testing.B) {
	benchExperiment(b, "fig19", map[string]string{
		"dali_avg_util":   "dali-cpu-%",
		"coordl_avg_util": "coordl-cpu-%",
	})
}

func BenchmarkFig20MemOverhead(b *testing.B) {
	benchExperiment(b, "fig20", map[string]string{
		"staging_peak_gib": "staging-GiB",
	})
}

func BenchmarkFig21PyCoorDL(b *testing.B) {
	benchExperiment(b, "fig21", map[string]string{
		"speedup_hdd_35": "hdd-x",
		"speedup_ssd_35": "ssd-x",
	})
}

func BenchmarkFig22CoordPrepMicro(b *testing.B) {
	benchExperiment(b, "fig22", map[string]string{
		"speedup_8jobs": "8jobs-x",
	})
}

func BenchmarkFig23EndToEnd(b *testing.B) {
	benchExperiment(b, "fig23", map[string]string{
		"speedup_hdd_pycoordlcoordminio": "hdd-full-x",
		"speedup_hdd_coordinatedprep":    "hdd-coordonly-x",
	})
}

func BenchmarkAppD5HighCPUHP(b *testing.B) {
	benchExperiment(b, "appd5", map[string]string{
		"speedup": "highcpu-x",
	})
}

func BenchmarkSec3LanguageModels(b *testing.B) {
	benchExperiment(b, "sec3-lang", map[string]string{
		"stall_bert-large": "bert-stall-%",
		"stall_resnet18":   "rn18-stall-%",
	})
}

func BenchmarkAblationCachePolicy(b *testing.B) {
	benchExperiment(b, "ablation-cache", map[string]string{
		"hit_coordl":       "minio-hit-%",
		"hit_dali-shuffle": "pagecache-hit-%",
	})
}

func BenchmarkAblationRemoteFetch(b *testing.B) {
	benchExperiment(b, "ablation-remote", map[string]string{
		"remote_epoch_s": "remote-epoch-s",
		"local_epoch_s":  "local-epoch-s",
	})
}

func BenchmarkAblationStagingDepth(b *testing.B) {
	benchExperiment(b, "ablation-staging", map[string]string{
		"epoch_s_cap50": "cap5gib-epoch-s",
	})
}

func BenchmarkAblationPrefetchDepth(b *testing.B) {
	benchExperiment(b, "ablation-prefetch", map[string]string{
		"epoch_s_depth1": "depth1-epoch-s",
		"epoch_s_depth6": "depth6-epoch-s",
	})
}
