package trainer

import (
	"context"
	"errors"
	"testing"
	"time"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
)

func jobModel(t testing.TB) *gpu.Model {
	t.Helper()
	return gpu.MustByName("resnet18")
}

func jobDataset() *dataset.Dataset { return dataset.ImageNet1K.Scale(0.01) }

// coordlConfig is a small CoorDL job on d with a 35% cache.
func coordlConfig(t testing.TB, d *dataset.Dataset, epochs int) Config {
	return Config{
		Model: jobModel(t), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Loader: loader.CoorDL, CacheBytes: 0.35 * d.TotalBytes, Epochs: epochs,
	}
}

// TestJobValidateTypedErrors: every invalid field of a job's Config yields
// its sentinel (matchable with errors.Is) and a *FieldError naming the
// field, from Validate and from RunContext alike.
func TestJobValidateTypedErrors(t *testing.T) {
	m, d, spec := jobModel(t), jobDataset(), cluster.ConfigSSDV100()
	cases := []struct {
		name  string
		cfg   Config
		want  error
		field string
	}{
		{"missing model", Config{Dataset: d, Spec: spec}, ErrMissingModel, "Model"},
		{"missing dataset", Config{Model: m, Spec: spec}, ErrMissingDataset, "Dataset"},
		{"negative servers", Config{Model: m, Dataset: d, Spec: spec, NumServers: -1}, ErrBadServers, "NumServers"},
		{"negative gpus", Config{Model: m, Dataset: d, Spec: spec, GPUsPerServer: -2}, ErrBadGPUs, "GPUsPerServer"},
		{"too many gpus", Config{Model: m, Dataset: d, Spec: spec, GPUsPerServer: spec.NumGPUs + 1}, ErrBadGPUs, "GPUsPerServer"},
		{"negative batch", Config{Model: m, Dataset: d, Spec: spec, Batch: -8}, ErrBadBatch, "Batch"},
		{"negative epochs", Config{Model: m, Dataset: d, Spec: spec, Epochs: -1}, ErrBadEpochs, "Epochs"},
		{"negative threads", Config{Model: m, Dataset: d, Spec: spec, ThreadsPerGPU: -3}, ErrBadThreads, "ThreadsPerGPU"},
		{"negative cache", Config{Model: m, Dataset: d, Spec: spec, CacheBytes: -1}, ErrBadCache, "CacheBytes"},
		{"negative prefetch", Config{Model: m, Dataset: d, Spec: spec, PrefetchDepth: -1}, ErrBadPrefetch, "PrefetchDepth"},
		{"negative record bytes", Config{Model: m, Dataset: d, Spec: spec, RecordBytes: -1}, ErrBadRecordBytes, "RecordBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, runErr := RunContext(context.Background(), tc.cfg)
			for src, err := range map[string]error{"Validate": tc.cfg.Validate(), "RunContext": runErr} {
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s: errors.Is(%v, %v) = false", src, err, tc.want)
				}
				var fe *FieldError
				if !errors.As(err, &fe) || fe.Field != tc.field {
					t.Fatalf("%s: error %v is not a *FieldError on %q", src, err, tc.field)
				}
			}
		})
	}

	// The zero-valued knobs are all valid: they resolve to defaults.
	ok := Config{Model: m, Dataset: d, Spec: spec}
	if err := ok.Validate(); err != nil {
		t.Fatalf("default job invalid: %v", err)
	}
	if cfg := ok.Resolved(); cfg.Epochs != 3 || cfg.GPUsPerServer != spec.NumGPUs {
		t.Fatalf("defaults not resolved: %+v", cfg)
	}
}

// recorder captures the event stream for sequence assertions.
type recorder struct{ events []Event }

func (r *recorder) Observe(ev Event) { r.events = append(r.events, ev) }

// TestObserverEventSequence asserts the stream's shape — JobStarted,
// (EpochStarted, EpochEnded) per epoch, JobEnded — and that each
// EpochEnded's stats equal the matching Result.Epochs entry.
func TestObserverEventSequence(t *testing.T) {
	epochs := 3
	rec := &recorder{}
	res, err := RunContext(context.Background(), coordlConfig(t, jobDataset(), epochs), rec)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 2*epochs // JobStarted + per-epoch pair + JobEnded
	if len(rec.events) != want {
		t.Fatalf("%d events, want %d: %#v", len(rec.events), want, rec.events)
	}
	js, ok := rec.events[0].(JobStarted)
	if !ok || js.Epochs != epochs {
		t.Fatalf("first event %#v, want JobStarted", rec.events[0])
	}
	for e := 0; e < epochs; e++ {
		es, ok := rec.events[1+2*e].(EpochStarted)
		if !ok || es.Epoch != e {
			t.Fatalf("event %d = %#v, want EpochStarted{%d}", 1+2*e, rec.events[1+2*e], e)
		}
		ee, ok := rec.events[2+2*e].(EpochEnded)
		if !ok || ee.Epoch != e {
			t.Fatalf("event %d = %#v, want EpochEnded{%d}", 2+2*e, rec.events[2+2*e], e)
		}
		if ee.Stats != res.Epochs[e] {
			t.Fatalf("epoch %d streamed stats %+v != result %+v", e, ee.Stats, res.Epochs[e])
		}
		// CoorDL populates its cache in epoch 0, so occupancy at every
		// epoch boundary must be positive.
		if ee.CacheUsedBytes <= 0 {
			t.Fatalf("epoch %d cache occupancy %g, want > 0", e, ee.CacheUsedBytes)
		}
	}
	if je, ok := rec.events[len(rec.events)-1].(JobEnded); !ok || je.Result != res {
		t.Fatalf("last event %#v, want JobEnded with the result", rec.events[len(rec.events)-1])
	}
}

// TestObserverTraceMarkersEnableTraces: the built-in observers subsume the
// legacy TraceDiskIO/TraceCPU flags.
func TestObserverTraceMarkersEnableTraces(t *testing.T) {
	res, err := RunContext(context.Background(), coordlConfig(t, jobDataset(), 2),
		DiskTraceObserver(), CPUTraceObserver())
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskTrace == nil || res.DiskTrace.Len() == 0 {
		t.Fatal("DiskTraceObserver did not enable the disk trace")
	}
	if res.CPUTrace == nil || res.CPUTrace.Len() == 0 {
		t.Fatal("CPUTraceObserver did not enable the CPU trace")
	}
}

// TestRunCancelledBeforeStart: a job launched with an already-cancelled
// context returns context.Canceled promptly.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RunContext(ctx, coordlConfig(t, jobDataset(), 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("got a result from a cancelled run")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

// TestRunCancelMidEpoch cancels from inside the event stream (first
// EpochEnded) and requires the run to abort with ctx.Err() instead of
// finishing the remaining epochs. The small batch keeps each remaining
// epoch well past the engine's cancellation-poll interval, so the abort
// must land mid-run, not at the end.
func TestRunCancelMidEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	cancelOnFirstEpoch := ObserverFunc(func(ev Event) {
		if _, ok := ev.(EpochEnded); ok {
			seen++
			cancel()
		}
	})
	cfg := coordlConfig(t, dataset.ImageNet1K.Scale(0.02), 4)
	cfg.Batch = 16
	res, err := RunContext(ctx, cfg, cancelOnFirstEpoch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("got a result from a cancelled run")
	}
	if seen == 0 || seen >= 4 {
		t.Fatalf("saw %d EpochEnded events, want an aborted run (1..3)", seen)
	}
}

// TestRunConcurrentContextCancelled: the HP-search entry point honors an
// already-cancelled context too.
func TestRunConcurrentContextCancelled(t *testing.T) {
	m, d := jobModel(t), jobDataset()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunConcurrentContext(ctx, ConcurrentConfig{
		Base: Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			CacheBytes: 0.35 * d.TotalBytes, Batch: 128,
		},
		NumJobs: 2, GPUsPerJob: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunConcurrentContextCancelMidRun: cancelling a running HP-search
// simulation kills it through the engine's poll.
func TestRunConcurrentContextCancelMidRun(t *testing.T) {
	m, d := jobModel(t), jobDataset()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// Enough epochs that the run cannot finish before the cancel lands on
	// this hardware; if it somehow does, the test still passes vacuously
	// on the error check below being nil — so assert on timing instead.
	start := time.Now()
	_, err := RunConcurrentContext(ctx, ConcurrentConfig{
		Base: Config{
			Model: m, Dataset: d, Spec: cluster.ConfigSSDV100(),
			CacheBytes: 0.35 * d.TotalBytes, Batch: 128, Epochs: 400,
		},
		NumJobs: 8, GPUsPerJob: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (run took %v)", err, time.Since(start))
	}
}
