// Package server is the HTTP job service around the datastall simulation
// engine: it turns the library's context-cancellable, observable training
// jobs and declarative scenario specs into long-running service
// infrastructure. Clients submit work to a bounded queue, poll or stream
// its progress, and cancel it; the service exposes its built-in specs,
// health, and Prometheus-text metrics.
//
// API (all request/response bodies JSON):
//
//	POST   /v1/jobs             submit {"spec": <Spec>} | {"spec_name": "fig5"} |
//	                            {"job": <JobSpec>} | {"jobs": [<JobSpec>, ...]}
//	                            (+ optional scale/epochs/seed), or a bare Spec
//	                            document -> 202 {"id", "status"}
//	GET    /v1/jobs             list jobs (no payloads)
//	GET    /v1/jobs/{id}        full record incl. report/result when completed
//	DELETE /v1/jobs/{id}        cancel (mid-run aborts propagate into the engine)
//	GET    /v1/jobs/{id}/events live event stream, NDJSON or SSE
//	GET    /v1/specs            built-in runnable specs (experiments.Specs)
//	GET    /v1/specs/{name}     one built-in spec document
//	GET    /v1/query            run a query (?q=<JSON query>) over finished jobs -> NDJSON
//	POST   /v1/query            same, query document as the body
//	GET    /healthz             liveness + uptime
//	GET    /metrics             Prometheus text format counters/gauges
//
// Every error response is the typed envelope {"error": {"code", "message",
// "field"}} (see errors.go); field is set when the failure is a typed
// validation error naming a request field or query clause.
//
// With Config.WorkerURLs set, the server runs as a fleet coordinator
// (coordinator.go): it executes nothing locally, sharding each spec's case
// grid across the named stallserved workers over this same API and
// gathering a report byte-identical to a single-node run — /healthz then
// reports fleet health and /metrics adds dispatch/retry counters and
// worker gauges. Config.TenantQuota caps queued+running jobs per
// X-Tenant header on any instance (429 with code "quota_exceeded").
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/memo"
	"datastall/internal/obs"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds the job worker pool (<= 0: one per CPU).
	Workers int
	// QueueDepth bounds the submission queue (<= 0: 64). A full queue
	// rejects POSTs with 503 rather than buffering unboundedly.
	QueueDepth int
	// SubscriberBuffer is the per-/events-stream ring size (<= 0: 256
	// events). A subscriber that falls further behind than this loses
	// oldest events (reported in its terminal marker) instead of
	// stalling the simulation.
	SubscriberBuffer int
	// MaxRecords bounds how many finished job records the in-memory store
	// retains (<= 0: 4096); beyond it, oldest terminal records are
	// evicted so a long-running service cannot grow without bound.
	// Metrics counters are totals and are unaffected; queued/running jobs
	// are never evicted; the WAL keeps their records.
	MaxRecords int
	// WALDir, when set, write-ahead-logs the full job lifecycle
	// (submitted, started, case_done, cancel_requested, terminal) to
	// rotating segments under this directory. On startup the clean prefix
	// is replayed: terminal jobs rehydrate with their history, interrupted
	// jobs re-enqueue and resume their sweeps from the last logged case.
	WALDir string
	// WALFsync is the log's durability policy (default: fsync per append).
	WALFsync wal.FsyncPolicy
	// WALFsyncInterval is the interval-policy fsync period (<= 0: 100ms).
	WALFsyncInterval time.Duration
	// WALSegmentBytes bounds one log segment (<= 0: 4 MiB).
	WALSegmentBytes int64
	// WALCompactEvery starts a compaction of the log into a checkpoint
	// after this many terminal records (<= 0: 64), bounding replay cost.
	// It runs in the background; a trigger while one runs is skipped.
	WALCompactEvery int
	// MemoDir, when set, memoizes every case through a content-addressed
	// result cache persisted under this directory (the same on-disk layout
	// `runsuite -memo` uses, so the CLI and the daemon can share one
	// directory): cells whose fully-resolved config was already simulated —
	// by any earlier job, process, or a fleet worker — are served from the
	// cache byte-identically instead of re-running.
	MemoDir string
	// MemoMaxBytes bounds the memo cache's in-memory LRU and its entry
	// directory, each (<= 0: 256 MiB). Enforced at insert and at startup,
	// so shrinking the budget trims an existing directory immediately.
	MemoMaxBytes int64
	// Log receives structured job-transition and recovery logging (nil:
	// silent). Per-job lines carry job_id, trace_id and (when set) tenant;
	// coordinator retry lines add worker, case_key and attempt.
	Log *slog.Logger
	// TraceDir, when set, writes each finished job's merged trace as
	// Chrome trace-event JSON to <dir>/<id>.trace.json (the same document
	// GET /v1/jobs/{id}/trace serves).
	TraceDir string

	// WorkerURLs, when non-empty, runs the server in coordinator mode:
	// spec jobs are sharded cell-by-cell across these stallserved workers
	// (and single jobs forwarded whole) instead of simulating locally.
	WorkerURLs []string
	// WorkerInflight bounds concurrently dispatched batches per worker,
	// each of which runs its cells one after another (<= 0: 4).
	WorkerInflight int
	// CaseRetries bounds re-route attempts per case beyond the first
	// (<= 0: 3).
	CaseRetries int
	// RetryBackoff is the first re-route delay, doubling per attempt,
	// capped at 5s (<= 0: 100ms).
	RetryBackoff time.Duration
	// TenantQuota, when > 0, bounds the jobs a single tenant (the
	// X-Tenant request header; empty means the anonymous tenant) may have
	// queued or running at once; excess submissions get 429
	// quota_exceeded. Layered on top of the global bounded queue.
	TenantQuota int

	// runJob, when non-nil, replaces the real workload execution — a test
	// seam for exercising scheduler races without real simulations. It
	// returns a spec's report, or a job's (or batch's) results.
	runJob func(ctx context.Context, j *Job) (*experiments.Report, []*trainer.Result, error)
}

// Server is the job service. Create with New, mount Handler on an
// http.Server, and Drain on shutdown.
type Server struct {
	cfg     Config
	store   *store
	metrics *metrics
	mux     *http.ServeMux
	start   time.Time
	workers int
	log     *slog.Logger

	queue     chan *Job
	wg        sync.WaitGroup
	submitMu  sync.RWMutex
	enqueueMu sync.Mutex // held by submit from the queue-room check to the send
	draining  bool
	runCtx    context.Context
	runCancel context.CancelFunc

	// coord is non-nil in coordinator mode (Config.WorkerURLs set).
	coord *coordinator

	// memo is the content-addressed result cache (nil when Config.MemoDir
	// unset). Its singleflight group spans jobs: identical cases submitted
	// concurrently simulate once.
	memo *memo.Cache

	// wal is the open write-ahead log (nil when Config.WALDir unset);
	// walTerminals counts terminal records toward the compaction cadence,
	// compactMu is held while a compaction runs (and from drain on),
	// walClose makes the drain-time close idempotent, and walInfo is the
	// startup recovery summary /healthz reports.
	wal          *wal.Log
	walTerminals atomic.Int64
	compactMu    sync.Mutex
	walClose     sync.Once
	walInfo      struct {
		records     int
		segments    int
		truncated   string
		resumedJobs int
	}

	// tenantActive counts each tenant's queued+running jobs while
	// Config.TenantQuota is enforced.
	quotaMu      sync.Mutex
	tenantActive map[string]int
}

// New builds a Server and starts its worker pool. WALDir (when set) is
// replayed first: finished jobs reload and interrupted ones resume.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = 256
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 4096
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:          cfg,
		store:        newStore(),
		metrics:      newMetrics(),
		queue:        make(chan *Job, cfg.QueueDepth),
		start:        time.Now(),
		tenantActive: map[string]int{},
		log:          cfg.Log,
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if len(cfg.WorkerURLs) > 0 {
		coord, err := newCoordinator(cfg)
		if err != nil {
			return nil, err
		}
		s.coord = coord
		go coord.healthLoop(s.runCtx, s.log)
	}
	if cfg.MemoDir != "" {
		mc, err := memo.Open(memo.Options{
			Dir: cfg.MemoDir, MaxBytes: cfg.MemoMaxBytes,
			OnLookup: func(hit bool, d time.Duration) { s.metrics.memoLookup.Observe(d.Seconds()) },
		})
		if err != nil {
			return nil, fmt.Errorf("server: memo: %w", err)
		}
		s.memo = mc
		st := mc.Stats()
		s.log.Info("memo cache open", "dir", cfg.MemoDir,
			"disk_entries", st.DiskEntries, "disk_bytes", st.DiskBytes, "salt", mc.Salt())
	}
	var pending []*Job
	if cfg.WALDir != "" {
		l, rec, err := wal.Open(wal.Options{
			Dir: cfg.WALDir, Fsync: cfg.WALFsync,
			FsyncInterval: cfg.WALFsyncInterval, SegmentBytes: cfg.WALSegmentBytes,
			OnFsync: func(d time.Duration) { s.metrics.walFsync.Observe(d.Seconds()) },
		})
		if err != nil {
			return nil, fmt.Errorf("server: wal: %w", err)
		}
		s.wal = l
		var replayErrs int
		pending, replayErrs = s.replayWAL(rec.Records)
		loadErrs := rec.LoadErrors + replayErrs
		s.walInfo.records = len(rec.Records)
		s.walInfo.segments = rec.Segments
		s.walInfo.truncated = rec.Truncated
		s.walInfo.resumedJobs = len(pending)
		s.metrics.persistLoadErrors.Add(int64(loadErrs))
		s.store.evictTerminal(cfg.MaxRecords)
		summary := fmt.Sprintf("persist: recovered %d job(s) (%d load error(s)); wal: %d record(s) in %d segment(s), %d interrupted job(s) to resume",
			s.store.count(), loadErrs, s.walInfo.records, s.walInfo.segments, len(pending))
		if s.walInfo.truncated != "" {
			summary += fmt.Sprintf(", truncated torn tail in %s", s.walInfo.truncated)
		}
		// The summary stays one composed message: recovery tooling greps
		// for its exact phrasing.
		s.log.Info(summary)
	}
	s.buildMux()
	s.startWorkers()
	// Interrupted jobs go back on the queue only after the workers exist
	// to drain it; their logged case results ride along in j.resume.
	for _, j := range pending {
		s.reenqueue(j)
	}
	return s, nil
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/specs", s.handleSpecs)
	mux.HandleFunc("GET /v1/specs/{name}", s.handleSpec)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux = mux
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the size of the running worker pool.
func (s *Server) Workers() int { return s.workers }

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxBatchJobs bounds a submission's Jobs list. A coordinator splits a
// worker's share of a sweep into more batches rather than exceed it.
const maxBatchJobs = 256

// SubmitRequest is the POST /v1/jobs body. Exactly one of Spec, SpecName,
// Job or Jobs selects the workload; Scale/Epochs/Seed fill fields the
// workload leaves zero (epochs default 3, seed 1, exactly as the CLIs
// default them).
type SubmitRequest struct {
	// Spec is an inline declarative sweep; the whole body may equally be
	// a bare Spec document.
	Spec *experiments.Spec `json:"spec,omitempty"`
	// SpecName runs a built-in spec (see GET /v1/specs) by name.
	SpecName string `json:"spec_name,omitempty"`
	// Job is a single training job.
	Job *experiments.JobSpec `json:"job,omitempty"`
	// Jobs is a batch of 1 to maxBatchJobs training jobs run in order as
	// one job: its event stream carries a case_done event with each
	// entry's index and result as it is captured, and its job_done carries
	// every result. Coordinators send their workers this form.
	Jobs []experiments.JobSpec `json:"jobs,omitempty"`

	Scale  float64 `json:"scale,omitempty"`
	Epochs int     `json:"epochs,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
}

// decodeSubmit parses a submission body — the wrapped SubmitRequest form
// first, then a bare Spec document — and checks its shape: exactly one
// workload selector, and a Jobs list of 1 to maxBatchJobs entries.
func decodeSubmit(body []byte) (*SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// Decode stops at the first JSON value; trailing content means a
		// malformed (e.g. concatenated) request that must not be half-run.
		if dec.More() {
			return nil, fmt.Errorf("trailing data after the request document")
		}
		selected := 0
		for _, on := range []bool{req.Spec != nil, req.SpecName != "", req.Job != nil, req.Jobs != nil} {
			if on {
				selected++
			}
		}
		if selected != 1 {
			return nil, fmt.Errorf("exactly one of \"spec\", \"spec_name\", \"job\" or \"jobs\" must be set (got %d)", selected)
		}
		if req.Jobs != nil && (len(req.Jobs) == 0 || len(req.Jobs) > maxBatchJobs) {
			return nil, fmt.Errorf("\"jobs\" holds %d entries, want 1 to %d", len(req.Jobs), maxBatchJobs)
		}
		return &req, nil
	}
	sp, sperr := experiments.LoadSpec(body)
	if sperr == nil {
		return &SubmitRequest{Spec: sp}, nil
	}
	// Report both readings: a bare spec's own error (say, an unknown job
	// field in its base) is the useful one for a spec author.
	return nil, fmt.Errorf("body is not a submit request (spec|spec_name|job|jobs + scale/epochs/seed): %v; nor a bare spec: %v", err, sperr)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				"request body over the %d-byte limit", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, codeBadRequest, "reading body: %v", err)
		return
	}
	req, err := decodeSubmit(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	opts := experiments.Options{Scale: req.Scale, Epochs: req.Epochs, Seed: req.Seed}

	var build func(id string) *Job
	switch {
	case req.SpecName != "":
		sp := experiments.SpecFor(req.SpecName)
		if sp == nil {
			writeErr(w, http.StatusNotFound, codeNotFound, "unknown spec %q (see GET /v1/specs)", req.SpecName)
			return
		}
		// Built-in specs carry no scale in their base — the CLI path fills
		// the registry experiment's DefaultScale in, so a by-name
		// submission must too or it could only ever fail at run time.
		if opts.Scale == 0 && sp.Base.Scale == 0 {
			if e, err := experiments.ByID(req.SpecName); err == nil {
				opts.Scale = e.DefaultScale
			}
		}
		build = specJob(sp, opts)
	case req.Spec != nil:
		if err := req.Spec.Validate(); err != nil {
			writeErrFrom(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		build = specJob(req.Spec, opts)
	default: // a job, or a batch of them
		kind, jobs := KindBatch, req.Jobs
		if req.Job != nil {
			kind, jobs = KindJob, []experiments.JobSpec{*req.Job}
		}
		cfgs, err := buildJobs(jobs, opts, kind == KindBatch)
		if err != nil {
			writeErrFrom(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		build = jobsJob(kind, jobs, cfgs, opts)
	}

	// A caller-supplied traceparent (the coordinator→worker hop, or any
	// external tracing client) threads its trace ID through, so a
	// distributed sweep merges into one trace.
	traceID, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	j, err := s.submit(r.Header.Get("X-Tenant"), traceID, build)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			writeErr(w, http.StatusServiceUnavailable, codeQueueFull, "%v", err)
		case errors.Is(err, errDraining):
			writeErr(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
		case errors.Is(err, errQuotaExceeded):
			s.metrics.quotaRejected.Add(1)
			writeErr(w, http.StatusTooManyRequests, codeQuotaExceeded, "%v", err)
		default:
			writeErr(w, http.StatusInternalServerError, codeInternal, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id": j.ID, "status": string(StatusQueued),
	})
}

// buildJobs resolves every job of a job or batch submission and surfaces
// the trainer's typed validation (*FieldError) now, with a 400 naming the
// offending field — prefixed jobs[k] in a batch — instead of queueing a
// job that can only fail.
func buildJobs(jobs []experiments.JobSpec, opts experiments.Options, batch bool) ([]trainer.Config, error) {
	cfgs := make([]trainer.Config, len(jobs))
	for k, js := range jobs {
		cfg, err := js.Build(opts)
		if err == nil {
			err = cfg.Validate()
		}
		switch {
		case err != nil && batch:
			return nil, &entryError{index: k, err: err}
		case err != nil:
			return nil, err
		}
		cfgs[k] = cfg
	}
	return cfgs, nil
}

// jobsJob builds the Job record for a job or batch submission.
func jobsJob(kind string, jobs []experiments.JobSpec, cfgs []trainer.Config, opts experiments.Options) func(id string) *Job {
	name := ""
	if kind == KindJob {
		name = jobs[0].Model
	}
	return func(id string) *Job {
		return &Job{
			ID: id, Kind: kind, Name: name,
			jobs: jobs, cfgs: cfgs, opts: opts,
			status: StatusQueued, submitted: time.Now(),
			bc:   trainer.NewBroadcaster(),
			done: make(chan struct{}),
		}
	}
}

// specJob builds the Job record for a declarative sweep submission.
func specJob(sp *experiments.Spec, opts experiments.Options) func(id string) *Job {
	return func(id string) *Job {
		return &Job{
			ID: id, Kind: KindSpec, Name: sp.Name,
			spec: sp, opts: opts,
			status: StatusQueued, submitted: time.Now(),
			bc:   trainer.NewBroadcaster(),
			done: make(chan struct{}),
		}
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.list()
	out := make([]*jobJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.view(false))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st, ok := s.cancelJob(j)
	if !ok {
		writeErr(w, http.StatusConflict, codeConflict, "job %s already %s", j.ID, st)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": j.ID, "status": string(st)})
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	type specInfo struct {
		Name  string `json:"name"`
		Title string `json:"title,omitempty"`
		Notes string `json:"notes,omitempty"`
	}
	specs := experiments.Specs()
	out := make([]specInfo, 0, len(specs))
	for _, sp := range specs {
		out = append(out, specInfo{Name: sp.Name, Title: sp.Title, Notes: sp.Notes})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"specs": out})
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	sp := experiments.SpecFor(r.PathValue("name"))
	if sp == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown spec %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, sp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.workers,
		"jobs":           s.store.count(),
	}
	if s.coord != nil {
		v["fleet"] = map[string]int{
			"workers": len(s.coord.workers),
			"healthy": s.coord.healthyCount(),
		}
	}
	if s.memo != nil {
		st := s.memo.Stats()
		v["memo"] = map[string]interface{}{
			"dir":          s.cfg.MemoDir,
			"max_bytes":    s.memo.MaxBytes(),
			"salt":         s.memo.Salt(),
			"entries":      st.Entries,
			"disk_entries": st.DiskEntries,
			"disk_bytes":   st.DiskBytes,
			"hits":         st.Hits,
			"misses":       st.Misses,
			"evictions":    st.Evictions,
			"load_errors":  st.LoadErrors,
		}
	}
	if s.wal != nil {
		walBlock := map[string]interface{}{
			"records":      s.walInfo.records,
			"segments":     s.walInfo.segments,
			"resumed_jobs": s.walInfo.resumedJobs,
			"appends":      s.metrics.walAppends.Load(),
		}
		if s.walInfo.truncated != "" {
			walBlock["truncated"] = s.walInfo.truncated
		}
		v["persist"] = map[string]interface{}{
			"load_errors": s.metrics.persistLoadErrors.Load(),
			"wal":         walBlock,
		}
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	healthy, total := 0, 0
	if s.coord != nil {
		healthy, total = s.coord.healthyCount(), len(s.coord.workers)
	}
	var ms *memo.Stats
	if s.memo != nil {
		st := s.memo.Stats()
		ms = &st
	}
	s.metrics.writeProm(w, len(s.queue), healthy, total, ms)
}
