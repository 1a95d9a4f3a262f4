package trainer

import (
	"context"
	"errors"
	"reflect"
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

// TestJobValidateTypedErrors drives the option combinatorics: every invalid
// field yields its sentinel (matchable with errors.Is) and a *FieldError
// naming the field.
func TestJobValidateTypedErrors(t *testing.T) {
	m, d, spec := jobModel(t), jobDataset(), cluster.ConfigSSDV100()
	cases := []struct {
		name  string
		job   *Job
		want  error
		field string
	}{
		{"missing model", New(nil, d, spec), ErrMissingModel, "Model"},
		{"missing dataset", New(m, nil, spec), ErrMissingDataset, "Dataset"},
		{"negative servers", New(m, d, spec, WithServers(-1)), ErrBadServers, "NumServers"},
		{"negative gpus", New(m, d, spec, WithGPUs(-2)), ErrBadGPUs, "GPUsPerServer"},
		{"too many gpus", New(m, d, spec, WithGPUs(spec.NumGPUs+1)), ErrBadGPUs, "GPUsPerServer"},
		{"negative batch", New(m, d, spec, WithBatch(-8)), ErrBadBatch, "Batch"},
		{"negative epochs", New(m, d, spec, WithEpochs(-1)), ErrBadEpochs, "Epochs"},
		{"negative threads", New(m, d, spec, WithThreadsPerGPU(-3)), ErrBadThreads, "ThreadsPerGPU"},
		{"negative cache", New(m, d, spec, WithCacheBytes(-1)), ErrBadCache, "CacheBytes"},
		{"negative prefetch", New(m, d, spec, WithPrefetchDepth(-1)), ErrBadPrefetch, "PrefetchDepth"},
		{"negative record bytes", New(m, d, spec, WithRecordBytes(-1)), ErrBadRecordBytes, "RecordBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.job.Validate()
			if err == nil {
				t.Fatal("want a validation error, got nil")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FieldError", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("field %q, want %q", fe.Field, tc.field)
			}
			// Run must refuse the same way, without executing anything.
			if _, rerr := tc.job.Run(context.Background()); !errors.Is(rerr, tc.want) {
				t.Fatalf("Run error %v, want %v", rerr, tc.want)
			}
		})
	}

	// The zero-valued knobs are all valid: they resolve to defaults.
	ok := New(m, d, spec)
	if err := ok.Validate(); err != nil {
		t.Fatalf("default job invalid: %v", err)
	}
	if cfg := ok.Config(); cfg.Epochs != 3 || cfg.GPUsPerServer != spec.NumGPUs {
		t.Fatalf("defaults not resolved: %+v", cfg)
	}
}

// TestJobRunMatchesRunContext proves RunContext on a bare Config and the
// Job API are one execution path: identical results, field for field.
func TestJobRunMatchesRunContext(t *testing.T) {
	m, d, spec := jobModel(t), jobDataset(), cluster.ConfigSSDV100()
	cfg := Config{
		Model: m, Dataset: d, Spec: spec,
		Loader: loader.CoorDL, CacheBytes: 0.35 * d.TotalBytes,
		Epochs: 3, Seed: 9,
	}
	direct, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := New(m, d, spec,
		WithLoader(loader.CoorDL),
		WithCacheBytes(0.35*d.TotalBytes),
		WithEpochs(3),
		WithSeed(9),
	)
	viaJob, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaJob) {
		t.Fatalf("RunContext and Job results diverge:\ndirect: %+v\njob:    %+v", direct, viaJob)
	}
}

// recorder captures the event stream for sequence assertions.
type recorder struct{ events []Event }

func (r *recorder) Observe(ev Event) { r.events = append(r.events, ev) }

// TestObserverEventSequence asserts the stream's shape — JobStarted,
// (EpochStarted, EpochEnded) per epoch, JobEnded — and that each
// EpochEnded's stats equal the matching Result.Epochs entry.
func TestObserverEventSequence(t *testing.T) {
	m, d, spec := jobModel(t), jobDataset(), cluster.ConfigSSDV100()
	epochs := 3
	rec := &recorder{}
	job := New(m, d, spec,
		WithLoader(loader.CoorDL),
		WithCacheBytes(0.35*d.TotalBytes),
		WithEpochs(epochs),
	)
	res, err := job.Run(context.Background(), rec)
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
	m, d, spec := jobModel(t), jobDataset(), cluster.ConfigSSDV100()
	job := New(m, d, spec, WithLoader(loader.CoorDL), WithCacheBytes(0.35*d.TotalBytes), WithEpochs(2))
	res, err := job.Run(context.Background(), DiskTraceObserver(), CPUTraceObserver())
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
	m, d, spec := jobModel(t), jobDataset(), cluster.ConfigSSDV100()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := New(m, d, spec, WithLoader(loader.CoorDL), WithCacheBytes(0.35*d.TotalBytes))
	start := time.Now()
	res, err := job.Run(ctx)
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
	m, spec := jobModel(t), cluster.ConfigSSDV100()
	d := dataset.ImageNet1K.Scale(0.02)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	cancelOnFirstEpoch := ObserverFunc(func(ev Event) {
		if _, ok := ev.(EpochEnded); ok {
			seen++
			cancel()
		}
	})
	job := New(m, d, spec, WithLoader(loader.CoorDL), WithBatch(16),
		WithCacheBytes(0.35*d.TotalBytes), WithEpochs(4))
	res, err := job.Run(ctx, cancelOnFirstEpoch)
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
