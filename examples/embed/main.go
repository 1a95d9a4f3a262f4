// Embedding example: drive the simulation engine directly — a
// trainer.Config, typed validation errors, streamed progress events, and a
// declarative scenario spec — instead of the high-level datastall
// wrappers. This is the shape a service embedding this library takes:
// describe a job from a request, validate it up front, run it under the
// request's context, and stream progress to the client.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/experiments"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/trainer"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "embed: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	d := dataset.ImageNet1K.Scale(0.01)

	// 1. Describe the job as one Config; zero fields take the defaults.
	//    Validation is explicit and typed: errors.Is picks out the failure
	//    class, *FieldError the offending field.
	cfg := trainer.Config{
		Model: gpu.MustByName("resnet18"), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Epochs:     3,
		Loader:     loader.CoorDL,
		CacheBytes: 0.35 * d.TotalBytes,
		Seed:       1,
	}
	if err := cfg.Validate(); err != nil {
		var fe *trainer.FieldError
		if errors.As(err, &fe) {
			return fmt.Errorf("bad job config, field %s: %w", fe.Field, err)
		}
		return err
	}

	// 2. Run under a context (SIGINT cancels mid-epoch) with observers
	//    streaming typed progress events as the simulation advances.
	fmt.Println("streaming a CoorDL training job:")
	res, err := trainer.RunContext(ctx, cfg, trainer.ObserverFunc(func(ev trainer.Event) {
		switch e := ev.(type) {
		case trainer.EpochEnded:
			fmt.Printf("  epoch %d: %6.2fs simulated, stall %4.1f%%, cache %4.0f MiB resident\n",
				e.Epoch, e.Stats.Duration, 100*e.Stats.StallFraction(),
				e.CacheUsedBytes/(1024*1024))
		}
	}))
	if err != nil {
		return err
	}
	fmt.Printf("steady state: %.2f s/epoch at %.1f%% cache hits\n\n",
		res.EpochTime, 100*res.HitRate)

	// 3. Or describe a whole sweep as data: the same declarative Spec
	//    format `runsuite -spec` loads from JSON.
	sweep := &experiments.Spec{
		Name:      "embed-demo",
		Title:     "cache-size sweep (ResNet18/ImageNet-1k, CoorDL)",
		RowHeader: []string{"cache frac"},
		Base: experiments.JobSpec{
			Model: "resnet18", Dataset: "imagenet-1k",
			Loader: "coordl", Scale: 0.01,
		},
		Rows: experiments.Axis{
			Param:  "cache_fraction",
			Values: []json.RawMessage{[]byte("0.2"), []byte("0.5"), []byte("0.8")},
		},
		Columns: []experiments.Column{
			{Label: "epoch s", Metric: "epoch_s"},
			{Label: "stall %", Metric: "stall_pct"},
			{Label: "hit %", Metric: "hit_pct"},
		},
	}
	rep, err := experiments.RunSpec(ctx, sweep, experiments.Options{})
	if err != nil {
		return err
	}
	fmt.Print(rep.Table.String())
	return nil
}
