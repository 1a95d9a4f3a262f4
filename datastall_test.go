package datastall

import (
	"context"
	"errors"
	"strings"
	"testing"

	"datastall/internal/trainer"
)

func TestTrainQuickstart(t *testing.T) {
	r, err := TrainContext(context.Background(), TrainConfig{
		Model: "resnet18", Loader: LoaderCoorDL,
		CacheFraction: 0.35, Scale: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.EpochSeconds <= 0 || r.SamplesPerSecond <= 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if r.CacheHitRate < 0.30 || r.CacheHitRate > 0.40 {
		t.Fatalf("MinIO hit rate %.2f, want ~0.35", r.CacheHitRate)
	}
	if len(r.Epochs) != 3 {
		t.Fatalf("epochs %d, want 3", len(r.Epochs))
	}
}

func TestTrainDefaults(t *testing.T) {
	// Empty loader/server/dataset resolve to documented defaults.
	r, err := TrainContext(context.Background(), TrainConfig{Model: "resnet50", Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if r.EpochSeconds <= 0 {
		t.Fatal("no result")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainContext(context.Background(), TrainConfig{Model: "nope"}); err == nil {
		t.Fatal("unknown model should fail")
	}
	if _, err := TrainContext(context.Background(), TrainConfig{Model: "resnet18", Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	if _, err := TrainContext(context.Background(), TrainConfig{Model: "resnet18", Server: "nope"}); err == nil {
		t.Fatal("unknown server should fail")
	}
	if _, err := TrainContext(context.Background(), TrainConfig{Model: "resnet18", Loader: "nope"}); err == nil {
		t.Fatal("unknown loader should fail")
	}
}

// TestTrainRejectsOutOfRange: the root API resolves through the same
// JobSpec resolver and trainer validator as spec cells, so an out-of-range
// scale is a returned error naming scale (not a panic) and a negative
// knob is the trainer's typed *FieldError.
func TestTrainRejectsOutOfRange(t *testing.T) {
	ctx := context.Background()
	for _, scale := range []float64{2, 1.5, -0.01} {
		c := TrainConfig{Model: "resnet18", Scale: scale}
		_, trainErr := TrainContext(ctx, c)
		_, hpErr := HPSearchContext(ctx, HPSearchConfig{Job: c})
		_, dsErr := AnalyzeStallsContext(ctx, c)
		for _, err := range []error{trainErr, hpErr, dsErr} {
			if err == nil || !strings.Contains(err.Error(), "scale") {
				t.Fatalf("scale %v: error %v, want one naming scale", scale, err)
			}
		}
	}
	_, err := TrainContext(ctx, TrainConfig{Model: "resnet18", PrepThreadsPerGPU: -2})
	var fe *trainer.FieldError
	if !errors.As(err, &fe) || fe.Field != "ThreadsPerGPU" {
		t.Fatalf("negative prep threads: error %v, want a *trainer.FieldError on ThreadsPerGPU", err)
	}
}

func TestCatalogs(t *testing.T) {
	if len(Models()) != 9 {
		t.Fatalf("models: %v", Models())
	}
	if len(Datasets()) != 7 {
		t.Fatalf("datasets: %v", Datasets())
	}
}

func TestCoorDLBeatsBaselinePublicAPI(t *testing.T) {
	run := func(l Loader) float64 {
		r, err := TrainContext(context.Background(), TrainConfig{
			Model: "shufflenetv2", Dataset: "openimages", Loader: l,
			CacheFraction: 0.65, Scale: 0.003,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.EpochSeconds
	}
	if coordl, dali := run(LoaderCoorDL), run(LoaderDALIShuffle); coordl >= dali {
		t.Fatalf("CoorDL (%.1fs) not faster than DALI (%.1fs)", coordl, dali)
	}
}

func TestDistributedTrain(t *testing.T) {
	r, err := TrainContext(context.Background(), TrainConfig{
		Model: "alexnet", Dataset: "openimages", Loader: LoaderCoorDL,
		Server: ServerHDD1080Ti, NumServers: 2,
		CacheFraction: 0.65, Scale: 0.003, Batch: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Partitioned caching: no storage I/O after the warmup epoch.
	last := r.Epochs[len(r.Epochs)-1]
	if last.DiskGiB > 0.01*r.Epochs[0].DiskGiB {
		t.Fatalf("steady-state disk I/O %.3f GiB, want ~0", last.DiskGiB)
	}
	if r.NetGiBPerEpoch == 0 {
		t.Fatal("no remote-cache traffic recorded")
	}
}

func TestHPSearchPublicAPI(t *testing.T) {
	job := TrainConfig{
		Model: "alexnet", Dataset: "openimages",
		CacheFraction: 0.65, Scale: 0.002, Batch: 128, Epochs: 2,
	}
	base, err := HPSearchContext(context.Background(), HPSearchConfig{Job: job, NumJobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := HPSearchContext(context.Background(), HPSearchConfig{Job: job, NumJobs: 8, Coordinated: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.PerJob) != 8 || len(coord.PerJob) != 8 {
		t.Fatal("missing per-job results")
	}
	if coord.PerJob[0].EpochSeconds >= base.PerJob[0].EpochSeconds {
		t.Fatal("coordinated prep should be faster")
	}
	if base.ReadAmplification <= coord.ReadAmplification {
		t.Fatal("baseline should amplify reads")
	}
	if coord.StagingPeakGiB <= 0 || coord.StagingPeakGiB > 5 {
		t.Fatalf("staging peak %.2f GiB out of range", coord.StagingPeakGiB)
	}
}

func TestAnalyzeStallsPublicAPI(t *testing.T) {
	p, err := AnalyzeStallsContext(context.Background(), TrainConfig{
		Model: "resnet18", Dataset: "imagenet-1k",
		CacheFraction: 0.35, Scale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(p.GPURate >= p.PrepRate && p.PrepRate >= p.FetchRate) {
		t.Fatalf("phase ordering: G=%.0f P=%.0f F=%.0f", p.GPURate, p.PrepRate, p.FetchRate)
	}
	if p.OptimalCacheFraction <= 0 || p.OptimalCacheFraction > 1 {
		t.Fatalf("optimal cache %.2f", p.OptimalCacheFraction)
	}
	if p.Bottleneck(0.01) != "io" {
		t.Fatalf("tiny cache should be io-bound, got %s", p.Bottleneck(0.01))
	}
	if p.WhatIfGPUFaster(0.35, 2) < p.PredictThroughput(0.35) {
		t.Fatal("faster GPUs must not hurt")
	}
	if p.WhatIfMoreCores(0.35, 2) < p.PredictThroughput(0.35) {
		t.Fatal("more cores must not hurt")
	}
}

func TestRunExperimentPublicAPI(t *testing.T) {
	infos := Experiments()
	if len(infos) < 30 {
		t.Fatalf("only %d experiments registered", len(infos))
	}
	rep, err := RunExperiment(context.Background(), "fig1", ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "GPU") || len(rep.Values) == 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	if _, err := RunExperiment(context.Background(), "nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestTraces(t *testing.T) {
	r, err := TrainContext(context.Background(), TrainConfig{
		Model: "resnet18", Dataset: "openimages", Loader: LoaderCoorDL,
		CacheFraction: 0.5, Scale: 0.002, TraceDiskIO: true, TraceCPU: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DiskTrace) == 0 || len(r.CPUTrace) == 0 {
		t.Fatal("traces missing")
	}
}
