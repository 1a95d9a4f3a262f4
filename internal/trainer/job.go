package trainer

import (
	"context"
	"errors"
	"fmt"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/prep"
)

// Job is a configured training job built with New and functional options.
// Unlike RunContext on a bare Config — which silently fills every zero
// field and reports problems as untyped strings — a Job separates
// construction (New + options), explicit validation (Validate, returning
// typed errors), and cancellable, observable execution (Run).
type Job struct {
	cfg Config
}

// Option configures a Job at construction time.
type Option func(*Config)

// New builds a Job for model on ds over the given server SKU. Unset knobs
// resolve to the same defaults the legacy API used (3 epochs, all GPUs, the
// SKU's fair CPU share and cache budget); call Validate to check the
// combination before running, or let Run do it.
func New(model *gpu.Model, ds *dataset.Dataset, spec cluster.ServerSpec, opts ...Option) *Job {
	cfg := Config{Model: model, Dataset: ds, Spec: spec}
	for _, o := range opts {
		o(&cfg)
	}
	return &Job{cfg: cfg}
}

// FromConfig wraps a Config as a Job, so a caller holding a Config gets
// typed validation and observers.
func FromConfig(cfg Config) *Job { return &Job{cfg: cfg} }

// WithServers sets the server count (weak scaling, §3.1).
func WithServers(n int) Option { return func(c *Config) { c.NumServers = n } }

// WithGPUs sets GPUs per server (default: all of the SKU's).
func WithGPUs(n int) Option { return func(c *Config) { c.GPUsPerServer = n } }

// WithBatch sets the per-GPU minibatch size (default: the SKU's reference
// batch for the model).
func WithBatch(n int) Option { return func(c *Config) { c.Batch = n } }

// WithEpochs sets the epoch count (default 3; the first epoch is cold-cache
// warmup).
func WithEpochs(n int) Option { return func(c *Config) { c.Epochs = n } }

// WithThreadsPerGPU sets prep threads per GPU (default: fair core share).
func WithThreadsPerGPU(n int) Option { return func(c *Config) { c.ThreadsPerGPU = n } }

// WithFramework selects the DALI or native-PyTorch prep cost model.
func WithFramework(fw prep.Framework) Option { return func(c *Config) { c.Framework = fw } }

// WithGPUPrep controls DALI's GPU-side prep pipeline.
func WithGPUPrep(m GPUPrepMode) Option { return func(c *Config) { c.GPUPrep = m } }

// WithLoader selects the data-loading baseline or CoorDL.
func WithLoader(k loader.Kind) Option { return func(c *Config) { c.Loader = k } }

// WithFetchMode overrides fetching for DS-Analyzer's differential phases.
func WithFetchMode(m FetchMode) Option { return func(c *Config) { c.FetchMode = m } }

// WithCacheBytes sets the per-server cache capacity (default: SKU budget).
func WithCacheBytes(b float64) Option { return func(c *Config) { c.CacheBytes = b } }

// WithPrefetchDepth sets the per-GPU staging queue depth in batches.
func WithPrefetchDepth(n int) Option { return func(c *Config) { c.PrefetchDepth = n } }

// WithSeed seeds all randomized components (default 1).
func WithSeed(s int64) Option { return func(c *Config) { c.Seed = s } }

// WithRecordBytes selects the TFRecord-style serialized format (§3.3.3)
// with record files of the given size.
func WithRecordBytes(b float64) Option { return func(c *Config) { c.RecordBytes = b } }

// WithoutRemoteFetch disables partitioned caching's remote path in
// distributed CoorDL jobs (the local-MinIO-only ablation).
func WithoutRemoteFetch() Option { return func(c *Config) { c.DisableRemoteFetch = true } }

// Validation sentinels. Job.Validate (and Job.Run) return a *FieldError
// wrapping one of these, so callers can both match the failure class with
// errors.Is and recover the offending field name.
var (
	// ErrMissingModel: no *gpu.Model was supplied.
	ErrMissingModel = errors.New("model is required")
	// ErrMissingDataset: no *dataset.Dataset was supplied.
	ErrMissingDataset = errors.New("dataset is required")
	// ErrBadServers: non-positive server count.
	ErrBadServers = errors.New("server count must be >= 1")
	// ErrBadGPUs: GPU count outside [1, SKU GPUs].
	ErrBadGPUs = errors.New("GPU count outside the server's range")
	// ErrBadBatch: negative per-GPU batch size.
	ErrBadBatch = errors.New("batch size must be >= 0")
	// ErrBadEpochs: negative epoch count.
	ErrBadEpochs = errors.New("epoch count must be >= 0")
	// ErrBadThreads: negative prep-thread count.
	ErrBadThreads = errors.New("prep threads per GPU must be >= 0")
	// ErrBadCache: negative cache capacity.
	ErrBadCache = errors.New("cache bytes must be >= 0")
	// ErrBadPrefetch: negative prefetch depth.
	ErrBadPrefetch = errors.New("prefetch depth must be >= 0")
	// ErrBadRecordBytes: negative TFRecord file size.
	ErrBadRecordBytes = errors.New("record bytes must be >= 0")
)

// FieldError is a typed validation failure: Field names the offending
// Job/Config field and Unwrap yields the matching sentinel (ErrMissingModel,
// ErrBadGPUs, ...).
type FieldError struct {
	// Field is the Config field name, e.g. "GPUsPerServer".
	Field string
	// Err is the sentinel classifying the failure.
	Err error
	// Detail elaborates with the offending values.
	Detail string
}

// Error implements error.
func (e *FieldError) Error() string {
	s := "trainer: " + e.Field + ": " + e.Err.Error()
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Unwrap yields the sentinel for errors.Is.
func (e *FieldError) Unwrap() error { return e.Err }

func fieldErr(field string, sentinel error, format string, args ...interface{}) *FieldError {
	return &FieldError{Field: field, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
}

// Validate checks the job's option combination and returns a typed
// *FieldError for the first invalid field, or nil. Zero-valued knobs are
// valid (they resolve to defaults); explicitly out-of-range ones are not.
func (j *Job) Validate() error { return validateJob(j.cfg) }

// validateJob is the typed validation shared by Job.Validate and Job.Run.
// It checks the raw (pre-default) config: zero means "use the default" and
// passes; negatives and impossible combinations fail.
func validateJob(c Config) error {
	if c.Model == nil {
		return fieldErr("Model", ErrMissingModel, "pass a *gpu.Model to trainer.New")
	}
	if c.Dataset == nil {
		return fieldErr("Dataset", ErrMissingDataset, "pass a *dataset.Dataset to trainer.New")
	}
	if c.NumServers < 0 {
		return fieldErr("NumServers", ErrBadServers, "got %d", c.NumServers)
	}
	if c.GPUsPerServer < 0 || c.GPUsPerServer > c.Spec.NumGPUs {
		return fieldErr("GPUsPerServer", ErrBadGPUs,
			"got %d on a %d-GPU server", c.GPUsPerServer, c.Spec.NumGPUs)
	}
	if c.Batch < 0 {
		return fieldErr("Batch", ErrBadBatch, "got %d", c.Batch)
	}
	if c.Epochs < 0 {
		return fieldErr("Epochs", ErrBadEpochs, "got %d", c.Epochs)
	}
	if c.ThreadsPerGPU < 0 {
		return fieldErr("ThreadsPerGPU", ErrBadThreads, "got %d", c.ThreadsPerGPU)
	}
	if c.CacheBytes < 0 {
		return fieldErr("CacheBytes", ErrBadCache, "got %g", c.CacheBytes)
	}
	if c.PrefetchDepth < 0 {
		return fieldErr("PrefetchDepth", ErrBadPrefetch, "got %d", c.PrefetchDepth)
	}
	if c.RecordBytes < 0 {
		return fieldErr("RecordBytes", ErrBadRecordBytes, "got %g", c.RecordBytes)
	}
	return nil
}

// Config returns the job's fully resolved configuration: every zero-valued
// knob replaced by the default Run would apply.
func (j *Job) Config() Config { return j.cfg.withDefaults() }

// Run executes the job. It honors ctx — the simulation polls for
// cancellation between events — returning ctx.Err() when cancelled
// (promptly, even with an already-cancelled context). Observers
// receive typed progress events (JobStarted, EpochStarted, EpochEnded,
// JobEnded) streamed during execution; pass DiskTraceObserver() /
// CPUTraceObserver() to enable the Result's time-series traces.
func (j *Job) Run(ctx context.Context, obs ...Observer) (*Result, error) {
	if err := validateJob(j.cfg); err != nil {
		return nil, err
	}
	cfg := j.cfg.withDefaults()
	// Defaulting can push a combination out of range (e.g. epochs forced to
	// a dataset too small); reuse the legacy checks for those.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runJob(ctx, cfg, obs)
}
