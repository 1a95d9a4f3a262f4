package datastall_test

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"datastall"
)

// TestConservationInvariants checks accounting identities that must hold for
// any run: stall fractions in [0,1], samples conserved across epochs, and
// steady-state disk I/O bounded by the uncached share of the dataset.
func TestConservationInvariants(t *testing.T) {
	r, err := datastall.TrainContext(context.Background(), datastall.TrainConfig{
		Model: "resnet18", Dataset: "openimages",
		Loader: datastall.LoaderCoorDL, CacheFraction: 0.5,
		Scale: 0.004, Epochs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Epochs) != 4 {
		t.Fatalf("epochs %d", len(r.Epochs))
	}
	samples := r.Epochs[0].Samples
	for i, e := range r.Epochs {
		if e.StallFraction < 0 || e.StallFraction > 1 {
			t.Fatalf("epoch %d stall fraction %v", i, e.StallFraction)
		}
		if e.Samples != samples {
			t.Fatalf("samples changed across epochs: %d vs %d", e.Samples, samples)
		}
		if e.Seconds <= 0 {
			t.Fatalf("epoch %d non-positive duration", i)
		}
	}
	// MinIO steady state: exactly the uncached share hits disk, and every
	// steady epoch reads the same amount.
	d1, d2 := r.Epochs[2].DiskGiB, r.Epochs[3].DiskGiB
	if math.Abs(d1-d2)/d1 > 0.02 {
		t.Fatalf("MinIO steady-state disk not stable: %v vs %v", d1, d2)
	}
}

// TestThroughputBoundedByIngestion: no configuration may exceed the GPU
// ingestion rate measured with synthetic data.
func TestThroughputBoundedByIngestion(t *testing.T) {
	for _, model := range []string{"alexnet", "resnet50", "audio-m5"} {
		p, err := datastall.AnalyzeStallsContext(context.Background(), datastall.TrainConfig{
			Model: model, CacheFraction: 0.5, Scale: 0.004,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.FetchRate > p.GPURate*1.001 {
			t.Fatalf("%s: actual rate %v exceeds ingestion rate %v",
				model, p.FetchRate, p.GPURate)
		}
	}
}

// TestCoorDLNeverReadsMoreDisk: across random configurations, CoorDL's
// steady-state disk I/O never exceeds the page-cache baseline's — MinIO's
// core guarantee.
func TestCoorDLNeverReadsMoreDisk(t *testing.T) {
	f := func(cacheRaw, modelRaw uint8, seed int64) bool {
		models := []string{"shufflenetv2", "resnet18", "mobilenetv2"}
		cacheFrac := 0.2 + 0.6*float64(cacheRaw)/255
		model := models[int(modelRaw)%len(models)]
		if seed == 0 {
			seed = 1
		}
		run := func(l datastall.Loader) *datastall.TrainResult {
			r, err := datastall.TrainContext(context.Background(), datastall.TrainConfig{
				Model: model, Dataset: "openimages", Loader: l,
				CacheFraction: cacheFrac, Scale: 0.002, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		coordl := run(datastall.LoaderCoorDL)
		dali := run(datastall.LoaderDALIShuffle)
		return coordl.DiskGiBPerEpoch <= dali.DiskGiBPerEpoch*1.001 &&
			coordl.EpochSeconds <= dali.EpochSeconds*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMinIOHitRateEqualsCapacityProperty: for any cache fraction, MinIO's
// steady-state hit rate equals the capacity ratio (within item-size noise).
func TestMinIOHitRateEqualsCapacityProperty(t *testing.T) {
	f := func(cacheRaw uint8) bool {
		frac := 0.1 + 0.8*float64(cacheRaw)/255
		r, err := datastall.TrainContext(context.Background(), datastall.TrainConfig{
			Model: "resnet18", Dataset: "imagenet-1k",
			Loader: datastall.LoaderCoorDL, CacheFraction: frac,
			Scale: 0.004,
		})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(r.CacheHitRate-frac) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleInvariance: the ratios the library reports (stall fraction, hit
// rate, speedups) must be stable across dataset scales.
func TestScaleInvariance(t *testing.T) {
	measure := func(scale float64) (stall, hit float64) {
		r, err := datastall.TrainContext(context.Background(), datastall.TrainConfig{
			Model: "shufflenetv2", Dataset: "openimages",
			Loader: datastall.LoaderCoorDL, CacheFraction: 0.65,
			Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.StallFraction, r.CacheHitRate
	}
	s1, h1 := measure(0.002)
	s2, h2 := measure(0.008)
	if math.Abs(h1-h2) > 0.02 {
		t.Fatalf("hit rate not scale-invariant: %v vs %v", h1, h2)
	}
	if math.Abs(s1-s2) > 0.08 {
		t.Fatalf("stall fraction drifted with scale: %v vs %v", s1, s2)
	}
}

// TestEndToEndDeterminism: the public API is bit-deterministic.
func TestEndToEndDeterminism(t *testing.T) {
	cfg := datastall.TrainConfig{
		Model: "alexnet", Dataset: "openimages",
		Loader: datastall.LoaderCoorDL, NumServers: 2,
		Server: datastall.ServerHDD1080Ti, Batch: 128,
		CacheFraction: 0.65, Scale: 0.003, Seed: 42,
	}
	a, err := datastall.TrainContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := datastall.TrainContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EpochSeconds != b.EpochSeconds ||
		a.DiskGiBPerEpoch != b.DiskGiBPerEpoch ||
		a.NetGiBPerEpoch != b.NetGiBPerEpoch {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// TestHPSearchJobsFinishTogether: coordinated HP jobs complete their epochs
// in lockstep (§4.3: epochs complete synchronized across jobs).
func TestHPSearchJobsFinishTogether(t *testing.T) {
	r, err := datastall.HPSearchContext(context.Background(), datastall.HPSearchConfig{
		Job: datastall.TrainConfig{
			Model: "alexnet", Dataset: "openimages",
			CacheFraction: 0.65, Batch: 128, Scale: 0.002,
		},
		NumJobs: 8, Coordinated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := r.PerJob[0].EpochSeconds
	for j, jr := range r.PerJob {
		if math.Abs(jr.EpochSeconds-ref)/ref > 0.05 {
			t.Fatalf("job %d epoch %v diverges from %v", j, jr.EpochSeconds, ref)
		}
	}
}

// TestLanguageModelsViaPublicAPI: the §3.1 exclusion reproduces through the
// public API too.
func TestLanguageModelsViaPublicAPI(t *testing.T) {
	r, err := datastall.TrainContext(context.Background(), datastall.TrainConfig{
		Model: "bert-large", CacheFraction: 0.35, Scale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.StallFraction > 0.02 {
		t.Fatalf("bert-large stall %.3f, want ~0 (§3.1)", r.StallFraction)
	}
}
