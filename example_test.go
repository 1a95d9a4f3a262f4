package datastall_test

import (
	"context"
	"fmt"

	"datastall"
	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/trainer"
)

// ExampleTrainContext demonstrates the core API: the simulation is
// deterministic, so this example's output is stable. The context cancels
// the run mid-epoch when it dies (a SIGINT handler or request deadline in
// real use).
func ExampleTrainContext() {
	r, err := datastall.TrainContext(context.Background(), datastall.TrainConfig{
		Model:         "resnet18",
		Dataset:       "imagenet-1k",
		Loader:        datastall.LoaderCoorDL,
		CacheFraction: 0.35,
		Scale:         0.01,
		Seed:          1,
	})
	if err != nil {
		panic(err)
	}
	// MinIO's guarantee: hit rate equals the capacity ratio exactly.
	fmt.Printf("hit rate %.2f, stalled %v\n", r.CacheHitRate, r.StallFraction > 0.2)
	// Output: hit rate 0.35, stalled true
}

// ExampleAnalyzeStallsContext shows DS-Analyzer's differential attribution.
func ExampleAnalyzeStallsContext() {
	p, err := datastall.AnalyzeStallsContext(context.Background(), datastall.TrainConfig{
		Model:         "bert-large",
		CacheFraction: 0.35,
		Scale:         0.01,
	})
	if err != nil {
		panic(err)
	}
	// §3.1: language models exhibit no data stalls.
	fmt.Printf("bert-large stalled: %v\n", p.FetchStallFraction+p.PrepStallFraction > 0.02)
	// Output: bert-large stalled: false
}

// ExampleRunContext embeds the trainer directly: one Config, explicit
// typed validation, and per-epoch progress streamed through an Observer
// while the simulation runs — the building blocks for putting this engine
// behind a service.
func ExampleRunContext() {
	d := dataset.ImageNet1K.Scale(0.01)
	cfg := trainer.Config{
		Model: gpu.MustByName("resnet18"), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Epochs:     2,
		Loader:     loader.CoorDL,
		CacheBytes: 0.35 * d.TotalBytes,
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	epochs := 0
	res, err := trainer.RunContext(context.Background(), cfg, trainer.ObserverFunc(func(ev trainer.Event) {
		if _, ok := ev.(trainer.EpochEnded); ok {
			epochs++
		}
	}))
	if err != nil {
		panic(err)
	}
	hr := float64(res.Epochs[1].Hits) / float64(res.Epochs[1].Hits+res.Epochs[1].Misses)
	fmt.Printf("streamed %d epochs, steady-state hit rate %.2f\n", epochs, hr)
	// Output: streamed 2 epochs, steady-state hit rate 0.35
}
