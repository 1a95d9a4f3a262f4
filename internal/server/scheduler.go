// The scheduler: a bounded submission queue feeding a fixed worker pool,
// with the same isolation semantics as the experiment-suite orchestrator —
// a panicking or failing job is captured into its own record and cannot
// take down a worker or the service. Cancellation is context plumbing end
// to end: DELETE cancels the per-job context, which the simulation engine
// polls, so mid-epoch aborts unwind promptly.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// errQueueFull rejects submissions when the bounded queue has no room.
var errQueueFull = errors.New("job queue full")

// errDraining rejects submissions once a graceful drain has begun.
var errDraining = errors.New("server draining, not accepting jobs")

// errQuotaExceeded rejects submissions over the per-tenant active-job bound.
var errQuotaExceeded = errors.New("tenant quota exceeded")

// acquireTenant counts a new job against its tenant's quota; the count is
// released exactly once, by finalize (or rolled back on a failed enqueue).
func (s *Server) acquireTenant(tenant string) error {
	if s.cfg.TenantQuota <= 0 {
		return nil
	}
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	if s.tenantActive[tenant] >= s.cfg.TenantQuota {
		return fmt.Errorf("%w: tenant %q has %d jobs active (quota %d); retry when one finishes",
			errQuotaExceeded, tenant, s.tenantActive[tenant], s.cfg.TenantQuota)
	}
	s.tenantActive[tenant]++
	return nil
}

func (s *Server) releaseTenant(tenant string) {
	if s.cfg.TenantQuota <= 0 {
		return
	}
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	if s.tenantActive[tenant] <= 1 {
		delete(s.tenantActive, tenant)
		return
	}
	s.tenantActive[tenant]--
}

func (s *Server) startWorkers() {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s.workers = workers
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runOne(j)
			}
		}()
	}
}

// submit registers a new job and enqueues it; the caller has already
// resolved and validated the workload. Room in the queue is checked first,
// under enqueueMu: a rejected submission is never visible or durable, and
// an accepted one cannot fail afterwards. The job then enters the store
// (the WAL's mutate-before-append rule), its submitted record is appended,
// and only then is it enqueued — so the submitted record precedes every
// record a worker writes for the job, and, appended before the 202,
// survives any crash under -fsync always. The queued gauge moves before
// the job is visible (a worker or a DELETE decrements it, so it can never
// go negative).
func (s *Server) submit(tenant, traceID string, build func(id string) *Job) (*Job, error) {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.draining {
		return nil, errDraining
	}
	if err := s.acquireTenant(tenant); err != nil {
		return nil, err
	}
	s.enqueueMu.Lock()
	defer s.enqueueMu.Unlock()
	if len(s.queue) == cap(s.queue) {
		s.releaseTenant(tenant)
		return nil, fmt.Errorf("%w (depth %d); retry later", errQueueFull, cap(s.queue))
	}
	j := build(s.store.nextID())
	j.tenant = tenant
	j.quotaHeld = s.cfg.TenantQuota > 0
	s.openTrace(j, traceID, false)
	s.metrics.queued.Add(1)
	s.metrics.submitted.Add(1)
	s.store.insert(j)
	s.walSubmitted(j)
	// Cannot block: only submitters send, one at a time under enqueueMu,
	// room was checked above, and the queue cannot close while submitMu is
	// held.
	s.queue <- j
	j.log.Info("job queued", "kind", j.Kind, "name", j.Name)
	return j, nil
}

// openTrace gives a job its tracer, root span, queue-wait span and scoped
// logger. traceID continues a caller-propagated trace (empty: fresh).
func (s *Server) openTrace(j *Job, traceID string, recovered bool) {
	j.tracer = obs.NewTracer("stallserved", traceID)
	j.joinedTrace = traceID != ""
	j.span = j.tracer.Start("job")
	j.span.SetAttr("kind", j.Kind)
	if j.Name != "" {
		j.span.SetAttr("name", j.Name)
	}
	j.span.SetAttr("job_id", j.ID)
	if j.tenant != "" {
		j.span.SetAttr("tenant", j.tenant)
	}
	if recovered {
		j.span.SetAttr("recovered", "true")
	}
	j.queueSpan = j.span.Start("queue_wait")
	attrs := []interface{}{"job_id", j.ID, "trace_id", j.tracer.TraceID()}
	if j.tenant != "" {
		attrs = append(attrs, "tenant", j.tenant)
	}
	j.log = s.log.With(attrs...)
}

// runOne executes one job on the calling worker goroutine.
func (s *Server) runOne(j *Job) {
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	if !j.markRunning(cancel) {
		// Cancelled out of the queue; the DELETE handler already
		// finalized the record.
		return
	}
	s.metrics.queued.Add(-1)
	s.metrics.running.Add(1)
	j.queueSpan.End()
	j.mu.Lock()
	waited := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.metrics.queueWait.Observe(waited.Seconds())
	s.walStarted(j)
	j.logger().Info("job running", "queue_wait_seconds", waited.Seconds())
	runSpan := j.span.Start("run")
	rep, results, err := s.execute(ctx, j, runSpan)
	if err != nil {
		runSpan.SetAttr("error", err.Error())
	}
	runSpan.End()
	s.finishRun(j, rep, results, err)
}

// execute runs the job's workload with panic isolation, streaming events
// through the job's broadcaster: a spec's grid, or a job or batch as a
// grid of one cell per job, through the one cell executor.
func (s *Server) execute(ctx context.Context, j *Job, runSpan obs.Span) (rep *experiments.Report, results []*trainer.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job %s: panic: %v", j.ID, p)
		}
	}()
	if s.cfg.runJob != nil {
		return s.cfg.runJob(ctx, j)
	}
	var cells []experiments.SpecCase
	switch {
	case j.Kind == KindSpec:
		if cells, err = experiments.EnumerateCases(j.spec, j.opts); err != nil {
			return nil, nil, err
		}
	case len(j.jobs) > 0:
		cells = make([]experiments.SpecCase, len(j.jobs))
		for k, js := range j.jobs {
			cells[k] = experiments.SpecCase{Index: k, Total: len(j.jobs), Job: js}
		}
	default:
		return nil, nil, fmt.Errorf("job %s: no runnable workload (kind %q)", j.ID, j.Kind)
	}
	o := j.opts
	o.Memo, o.Trace = s.memo, runSpan
	results, err = s.executor(j).Execute(ctx, cells, o)
	switch {
	case err != nil:
		return nil, nil, err
	case j.Kind != KindSpec:
		return nil, results, nil
	}
	assemble := runSpan.Start("assemble")
	rep, err = experiments.AssembleReport(j.spec, j.opts, results)
	assemble.End()
	return rep, nil, err
}

// executor configures the one cell executor for a job. Locally, cells
// simulate in-process, serially in index order; in coordinator mode every
// unique cell goes to the fleet in a few batches per worker, and this
// worker goroutine only scatters and gathers. Either way, WAL-recovered
// cells are served from j.resume, spec cells stream case_started and
// case_resumed annotations, and every captured cell is logged as
// case_done and timed; a batch's cells also stream a case_done event
// carrying the result.
func (s *Server) executor(j *Job) experiments.Executor {
	e := experiments.Executor{
		Resume: j.resume,
		Start: func(c experiments.SpecCase, resumed bool) {
			if resumed {
				s.metrics.walResumedCases.Add(1)
			}
			if j.Kind != KindSpec {
				return
			}
			kind, text := "case_started", "row="+c.Row
			if resumed {
				kind = "case_resumed"
			}
			if c.Case != "" {
				text += " case=" + c.Case
			}
			s.metrics.events.Add(1)
			j.bc.Observe(trainer.Annotation{Kind: kind, Text: text, Index: c.Index, Total: c.Total})
		},
		Done: func(c experiments.SpecCase, res *trainer.Result, took time.Duration) {
			s.walRecord(j, wal.TypeCaseDone, walCase{Index: c.Index, Result: res})
			if took > 0 { // zero: a duplicate, which copied its leader
				s.metrics.caseSecs.Observe(took.Seconds())
			}
			if j.Kind == KindBatch {
				s.metrics.events.Add(1)
				j.bc.Observe(trainer.Annotation{Kind: "case_done", Index: c.Index, Total: c.Total, Result: res})
			}
		},
	}
	if s.coord != nil {
		e.Batch = s.coordBatch(j)
		return e
	}
	counting := trainer.ObserverFunc(func(trainer.Event) { s.metrics.events.Add(1) })
	if j.Kind == KindBatch {
		// A batch's trainer events name no entry, so its stream carries
		// case_done events instead.
		e.Run = experiments.LocalRunner(j.opts, counting)
		return e
	}
	e.Run = experiments.LocalRunner(j.opts, counting, j.bc)
	return e
}

// finishRun records a finished run's terminal state. If a DELETE already
// moved the job to cancelled, that wins and the run's output is discarded —
// the client was told "cancelled" and the record stays consistent with it.
func (s *Server) finishRun(j *Job, rep *experiments.Report, results []*trainer.Result, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.wall = time.Since(j.started).Seconds()
	deleted := j.status == StatusCancelled
	switch {
	case deleted:
		// DELETE won the race; keep its verdict (and its counter bump).
	case err == nil:
		j.status = StatusCompleted
		j.report = rep
		j.results = results
		// Capture each run once; queries and the terminal WAL record both
		// read these immutable cases.
		for k, res := range results {
			var cfg trainer.Config
			if k < len(j.cfgs) {
				cfg = j.cfgs[k]
			}
			j.cases = append(j.cases, experiments.JobCase(j.ID, cfg, res))
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancelled by server drain (DELETE sets StatusCancelled itself).
		j.status = StatusCancelled
		j.errMsg = err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	st := j.status
	j.mu.Unlock()
	switch {
	case deleted:
		// Counted by cancelJob.
	case st == StatusCompleted:
		s.metrics.completed.Add(1)
	case st == StatusFailed:
		s.metrics.failed.Add(1)
	case st == StatusCancelled:
		s.metrics.cancelled.Add(1)
	}
	// Settle the gauge and log before finalize closes Done(): anyone who
	// observed the job terminal sees gauges that already reconcile and the
	// job's finished line.
	s.metrics.running.Add(-1)
	j.logger().Info("job finished", "status", string(st), "wall_seconds", j.wall)
	s.finalize(j)
}

// finalize logs the job's terminal state to the WAL, ends its trace, frees
// its tenant's quota slot, closes its event stream, accounts its drops, and
// signals Done. Exactly one caller reaches it per job: the worker via
// finishRun, or the DELETE handler for a job cancelled out of the queue.
// Everything before the stream closes is settled for anyone who reads
// job_done from /events or waits on Done(): the state is already durable
// (under -fsync always), job_done's spans are complete, and a resubmission
// is not refused over the finished job's slot.
func (s *Server) finalize(j *Job) {
	s.walTerminal(j)
	s.endTrace(j)
	if j.quotaHeld {
		j.quotaHeld = false
		s.releaseTenant(j.tenant)
	}
	if j.bc != nil {
		j.bc.Close()
		s.metrics.eventsDropped.Add(int64(j.bc.Dropped()))
	}
	close(j.done)
	s.store.evictTerminal(s.cfg.MaxRecords)
}

// cancelJob implements DELETE: it resolves the race against completion
// under the job's mutex. Terminal jobs are not cancellable (the caller
// turns that into 409); queued jobs finalize immediately; running jobs are
// marked cancelled and their context cancelled — the worker observes
// ctx.Err() at the engine's next poll and unwinds, keeping the verdict.
func (s *Server) cancelJob(j *Job) (Status, bool) {
	j.mu.Lock()
	switch {
	case j.status.Terminal():
		st := j.status
		j.mu.Unlock()
		return st, false
	case j.status == StatusQueued:
		j.status = StatusCancelled
		j.finished = time.Now()
		j.errMsg = "cancelled while queued"
		j.mu.Unlock()
		s.metrics.queued.Add(-1)
		s.metrics.cancelled.Add(1)
		s.finalize(j)
		j.logger().Info("job cancelled (was queued)")
		return StatusCancelled, true
	default: // running
		j.status = StatusCancelled
		j.errMsg = "cancelled"
		cancel := j.cancel
		j.mu.Unlock()
		// The client is about to be told "cancelled"; log the verdict so a
		// crash that beats the worker's terminal record still honours it.
		s.walRecord(j, wal.TypeCancelRequested, struct{}{})
		cancel()
		s.metrics.cancelled.Add(1)
		j.logger().Info("job cancelling (was running)")
		return StatusCancelled, true
	}
}

// Drain gracefully shuts the scheduler down: new submissions are refused,
// queued and running jobs are given until ctx expires to finish, then
// whatever is still in flight is cancelled through its context. Drain
// returns once every worker has exited; the return value reports whether
// the drain completed without forced cancellation. Safe to call once.
func (s *Server) Drain(ctx context.Context) bool {
	s.submitMu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.submitMu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	drained := false
	select {
	case <-workersDone:
		// All jobs finished on their own; cancel runCtx anyway to stop
		// background helpers (the coordinator's health loop).
		s.runCancel()
		drained = true
	case <-ctx.Done():
		s.runCancel()
		<-workersDone
	}
	// No job dispatches any more: drop the pooled worker connections.
	if s.coord != nil {
		s.coord.client.CloseIdleConnections()
	}
	// Workers are gone, so no more appends: wait out a running compaction,
	// keep compactMu so none starts, then sync and close the log.
	if s.wal != nil {
		s.walClose.Do(func() {
			s.compactMu.Lock()
			if err := s.wal.Close(); err != nil {
				s.log.Warn("wal close failed", "error", err)
			}
		})
	}
	return drained
}

// Close shuts down immediately: in-flight jobs are cancelled and Close
// returns when the workers have exited.
func (s *Server) Close() {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(done)
}
