package trainer

import (
	"errors"
	"fmt"
)

// Validation sentinels. Config.Validate (and so RunContext) returns a
// *FieldError wrapping one of these, so callers can both match the failure
// class with errors.Is and recover the offending field name.
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
// Config field and Unwrap yields the matching sentinel (ErrMissingModel,
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

// Validate checks the job description and returns a typed *FieldError
// for the first invalid field, or nil. It checks the raw (pre-default)
// config: zero means "use the default" and passes; negatives and
// impossible combinations fail. RunContext and RunConcurrentContext call
// it before resolving defaults.
func (c Config) Validate() error {
	if c.Model == nil {
		return fieldErr("Model", ErrMissingModel, "set Config.Model")
	}
	if c.Dataset == nil {
		return fieldErr("Dataset", ErrMissingDataset, "set Config.Dataset")
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
