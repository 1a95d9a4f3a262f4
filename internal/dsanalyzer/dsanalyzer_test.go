package dsanalyzer

import (
	"context"
	"math"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/trainer"
)

func profileFor(t *testing.T, model string, cacheFrac float64) *Profile {
	t.Helper()
	d := dataset.ImageNet1K.Scale(0.01)
	p, err := Analyze(context.Background(), trainer.Config{
		Model: gpu.MustByName(model), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Loader: loader.DALIShuffle,
		CacheBytes: cacheFrac * d.TotalBytes, Epochs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPhaseOrdering(t *testing.T) {
	// G >= P >= F always: each phase adds a potential bottleneck.
	p := profileFor(t, "resnet18", 0.35)
	if !(p.G >= p.P && p.P >= p.F) {
		t.Fatalf("phase ordering violated: G=%.0f P=%.0f F=%.0f", p.G, p.P, p.F)
	}
	if p.G <= 0 || p.F <= 0 {
		t.Fatal("rates must be positive")
	}
	// Stall fractions are a partition of epoch time with compute.
	if p.PrepStallFrac < 0 || p.FetchStallFrac < 0 ||
		p.PrepStallFrac+p.FetchStallFrac > 1 {
		t.Fatalf("bad stall split: prep=%.2f fetch=%.2f", p.PrepStallFrac, p.FetchStallFrac)
	}
}

func TestResNet18HasBothStalls(t *testing.T) {
	// §3: ResNet18 at 35% cache on Config-SSD-V100 is both prep- and
	// fetch-stalled.
	p := profileFor(t, "resnet18", 0.35)
	if p.PrepStallFrac < 0.05 {
		t.Fatalf("expected prep stall, got %.2f", p.PrepStallFrac)
	}
	if p.FetchStallFrac < 0.05 {
		t.Fatalf("expected fetch stall, got %.2f", p.FetchStallFrac)
	}
}

func TestPredictFetchRateMatchesEmpirical(t *testing.T) {
	// Table 5: Eq 4's predicted fetch rate tracks a measured fetch-bound
	// run across cache sizes (the paper reports <= 4% error at testbed
	// scale; we allow more because short simulated epochs overlap fetch
	// and prep imperfectly).
	d := dataset.ImageNet1K.Scale(0.06)
	p := profileFor(t, "alexnet", 0.35)
	for _, frac := range []float64{0.25, 0.35, 0.50} {
		pred := p.PredictThroughput(frac)
		r, err := trainer.RunContext(context.Background(), trainer.Config{
			Model: gpu.MustByName("alexnet"), Dataset: d,
			Spec: cluster.ConfigSSDV100(), Loader: loader.CoorDL,
			CacheBytes: frac * d.TotalBytes, Epochs: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pred-r.Throughput) / r.Throughput; rel > 0.15 {
			t.Fatalf("cache %.0f%%: predicted %.0f vs empirical %.0f (%.0f%% off)",
				frac*100, pred, r.Throughput, rel*100)
		}
	}
}

func TestPredictFetchRateMonotone(t *testing.T) {
	p := profileFor(t, "resnet50", 0.35)
	prev := 0.0
	for x := 0.0; x <= 1.0; x += 0.1 {
		f := p.PredictFetchRate(x)
		if f < prev {
			t.Fatalf("fetch rate not monotone at x=%.1f", x)
		}
		prev = f
	}
	// At x=1 everything comes from DRAM.
	if math.Abs(p.PredictFetchRate(1)-p.C) > 1e-6 {
		t.Fatal("full cache should fetch at memory rate")
	}
	if math.Abs(p.PredictFetchRate(0)-p.S) > 1e-6 {
		t.Fatal("no cache should fetch at storage rate")
	}
}

func TestOptimalCacheFrac(t *testing.T) {
	p := profileFor(t, "alexnet", 0.35)
	x := p.OptimalCacheFrac()
	if x <= 0 || x > 1 {
		t.Fatalf("optimal cache frac %v out of range", x)
	}
	// At the optimum fetch is no longer the unique bottleneck...
	if p.Bottleneck(x+0.05) == "io" {
		t.Fatalf("still io-bound above the recommended cache size")
	}
	// ...but just below it, fetch stalls remain.
	if x > 0.1 && p.Bottleneck(x-0.1) != "io" {
		t.Fatalf("not io-bound below the recommended cache size")
	}
}

func TestCoresToMaskPrep(t *testing.T) {
	// ResNet18 at 3 cores/GPU is prep-starved; the profile should ask
	// for roughly the Fig 4 multiplier (12 cores / 3 cores ~ 3-4x).
	d := dataset.ImageNet1K.Scale(0.01)
	p, err := Analyze(context.Background(), trainer.Config{
		Model: gpu.MustByName("resnet18"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Loader: loader.DALIShuffle,
		ThreadsPerGPU: 3, GPUPrep: trainer.GPUPrepOff,
		CacheBytes: d.TotalBytes, Epochs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := p.CoresToMaskPrep()
	if f < 2 || f > 5 {
		t.Fatalf("core multiplier %.1f, want ~3-4 (Fig 4: 12 cores vs 3)", f)
	}
	// A model with ample prep (ResNet50 at 4 cores) needs nothing extra.
	p2, err := Analyze(context.Background(), trainer.Config{
		Model: gpu.MustByName("resnet50"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Loader: loader.DALIShuffle,
		GPUsPerServer: 1, ThreadsPerGPU: 6,
		CacheBytes: d.TotalBytes, Epochs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := p2.CoresToMaskPrep(); f > 1.15 {
		t.Fatalf("resnet50 with 6 cores should not need more (got %.2fx)", f)
	}
}

func TestWhatIfQueries(t *testing.T) {
	p := profileFor(t, "resnet50", 0.35)
	// Faster GPUs can only shift the bottleneck toward data.
	base := p.PredictThroughput(0.35)
	faster := p.WhatIfGPUFaster(0.35, 2)
	if faster < base {
		t.Fatal("faster GPU must not reduce throughput")
	}
	if faster > 2*base+1 {
		t.Fatal("faster GPU cannot more than double throughput")
	}
	// If io-bound, more cores buy nothing (§3.4).
	if p.Bottleneck(0.05) == "io" {
		a := p.PredictThroughput(0.05)
		b := p.WhatIfMoreCores(0.05, 4)
		if math.Abs(a-b) > 1e-9 {
			t.Fatal("more cores should not help an io-bound job")
		}
	}
}
