// Job records and the in-memory job store. A Job moves through a strict
// state machine — queued -> running -> {completed, failed, cancelled}, with
// the queued -> cancelled shortcut for jobs killed before a worker picks
// them up — and every transition happens under the job's own mutex, so the
// cancel-vs-completion race resolves to exactly one terminal state.
// Durability is the write-ahead log's (walstore.go); persistJSON below is
// the terminal record it carries.
package server

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	// StatusQueued: accepted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the simulation.
	StatusRunning Status = "running"
	// StatusCompleted: finished with a result.
	StatusCompleted Status = "completed"
	// StatusFailed: the run returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusCancelled: killed by DELETE (or server drain) before finishing.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusCancelled
}

// Job kinds.
const (
	// KindSpec: a declarative sweep (experiments.Spec) producing a Report.
	KindSpec = "spec"
	// KindJob: a single training job (experiments.JobSpec) producing a
	// trainer.Result.
	KindJob = "job"
	// KindBatch: a list of training jobs producing one trainer.Result
	// each — the form in which a coordinator hands a worker its share of
	// a sweep.
	KindBatch = "batch"
)

// Job is one submitted workload and its live state.
type Job struct {
	// ID, Kind and Name are immutable after submission.
	ID   string
	Kind string
	// Name is the spec name (KindSpec) or the model name (KindJob); a
	// KindBatch has none.
	Name string

	// Workload, resolved at submission time (immutable). jobs are the
	// submitted training jobs of a KindJob (one) or KindBatch, the cells
	// the executor runs, and cfgs their resolved configs; coordinator mode
	// forwards jobs to a worker verbatim. tenant is the submitting X-Tenant
	// (empty: anonymous), counted against Config.TenantQuota.
	spec   *experiments.Spec
	jobs   []experiments.JobSpec
	cfgs   []trainer.Config
	opts   experiments.Options
	tenant string

	// bc fans the run's Observer events out to /events subscribers; nil
	// only for terminal jobs rehydrated from a WAL terminal record.
	bc *Broadcaster

	mu        sync.Mutex
	status    Status
	submitted time.Time
	started   time.Time
	finished  time.Time
	wall      float64
	errMsg    string
	report    *experiments.Report
	// results holds a completed KindJob's or KindBatch's result per job.
	results []*trainer.Result
	cancel  func()
	// cases is the case capture of a completed job or batch, taken once by
	// finishRun, or of a job reloaded from a WAL terminal record (spec jobs
	// serve theirs from report.Cases). Immutable once set.
	cases []*experiments.CaseResult

	// resume holds per-cell results recovered from the WAL (set before the
	// job is queued, read-only after): the executor serves these cells from
	// the log instead of re-simulating them. quotaHeld marks that submit
	// counted this job against its tenant's quota (recovered jobs never
	// re-acquire it).
	resume    map[int]*trainer.Result
	quotaHeld bool

	// done closes exactly once, when the job reaches a terminal state and
	// its event stream has been closed.
	done chan struct{}

	// tracer records the job's span tree (nil for jobs rehydrated from
	// persistence — their execution predates this process). span is the
	// root "job" span; queueSpan covers submission to worker pickup. log
	// carries the job-scoped structured fields (job_id, trace_id, tenant).
	// joinedTrace marks a submission that continued a caller's trace (a
	// traceparent header): its job_done ships the span records back. All
	// are set before the job is enqueued and immutable after.
	tracer      *obs.Tracer
	span        obs.Span
	queueSpan   obs.Span
	log         *slog.Logger
	joinedTrace bool
}

// discardLog backs logger() for jobs that never got a scoped logger
// (rehydrated terminal records).
var discardLog = slog.New(slog.DiscardHandler)

// logger returns the job-scoped logger, never nil.
func (job *Job) logger() *slog.Logger {
	if job.log != nil {
		return job.log
	}
	return discardLog
}

// Broadcaster is the trainer's fan-out observer; aliased so the API
// surface of this package reads without the trainer import.
type Broadcaster = trainer.Broadcaster

// StatusNow returns the job's current state.
func (job *Job) StatusNow() Status {
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.status
}

// Done returns a channel closed when the job reaches a terminal state.
func (job *Job) Done() <-chan struct{} { return job.done }

// markRunning transitions queued -> running, recording the start time and
// the run's cancel hook; it fails (false) when a DELETE already cancelled
// the job out of the queue.
func (job *Job) markRunning(cancel func()) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.status != StatusQueued {
		return false
	}
	job.status = StatusRunning
	job.started = time.Now()
	job.cancel = cancel
	return true
}

// jobJSON is the wire form of a Job.
type jobJSON struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	Name        string     `json:"name,omitempty"`
	Tenant      string     `json:"tenant,omitempty"`
	Status      Status     `json:"status"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	WallSeconds float64    `json:"wall_seconds,omitempty"`
	Error       string     `json:"error,omitempty"`
	// Report is the KindSpec result, Result the KindJob one and Results
	// the KindBatch ones, in submission order.
	Report  *reportJSON       `json:"report,omitempty"`
	Result  *trainer.Result   `json:"result,omitempty"`
	Results []*trainer.Result `json:"results,omitempty"`
}

// persistJSON is the WAL terminal record's payload: the wire form plus the
// per-case capture, so a restart keeps the job queryable through
// /v1/query. A strict superset of jobJSON, so HTTP responses are unchanged.
type persistJSON struct {
	jobJSON
	Cases []*experiments.CaseResult `json:"cases,omitempty"`
}

// reportJSON is the wire form of an experiments.Report (the Table rendered
// through its pre-formatted string cells, so values match the CLI tables
// digit-for-digit).
type reportJSON struct {
	ID     string             `json:"id,omitempty"`
	Title  string             `json:"title,omitempty"`
	Paper  string             `json:"paper,omitempty"`
	Notes  string             `json:"notes,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Table  *stats.TableJSON   `json:"table,omitempty"`
}

func toReportJSON(r *experiments.Report) *reportJSON {
	if r == nil {
		return nil
	}
	out := &reportJSON{ID: r.ID, Title: r.Title, Paper: r.Paper, Notes: r.Notes, Values: r.Values}
	if r.Table != nil {
		out.Table = r.Table.JSON()
	}
	return out
}

// view renders the job's wire form; withOutput false omits the (possibly
// large) report/result payloads for listings.
func (job *Job) view(withOutput bool) *jobJSON {
	job.mu.Lock()
	defer job.mu.Unlock()
	v := &jobJSON{
		ID: job.ID, Kind: job.Kind, Name: job.Name, Tenant: job.tenant,
		Status: job.status, SubmittedAt: job.submitted,
		WallSeconds: job.wall, Error: job.errMsg,
	}
	if !job.started.IsZero() {
		t := job.started
		v.StartedAt = &t
	}
	if !job.finished.IsZero() {
		t := job.finished
		v.FinishedAt = &t
	}
	if withOutput {
		v.Report = toReportJSON(job.report)
		switch {
		case job.Kind == KindBatch:
			v.Results = job.results
		case len(job.results) > 0:
			v.Result = job.results[0]
		}
	}
	return v
}

// store is the in-memory job index, insertion-ordered.
type store struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   int
}

func newStore() *store { return &store{jobs: map[string]*Job{}} }

// nextID allocates the next job ID.
func (st *store) nextID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	return fmt.Sprintf("job-%06d", st.seq)
}

// insert registers a successfully enqueued job.
func (st *store) insert(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
}

// count returns the number of registered jobs.
func (st *store) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.jobs)
}

// evictable reports whether the job is safe to drop from the store: fully
// finished (Done closed), not merely marked terminal — a DELETE-cancelled
// job whose worker is still unwinding stays visible until finalize.
func (job *Job) evictable() bool {
	if !job.StatusNow().Terminal() {
		return false
	}
	select {
	case <-job.done:
		return true
	default:
		return false
	}
}

// evictTerminal drops the oldest finished records beyond max, bounding a
// long-running service's memory: counters on /metrics are totals and keep
// counting, but the store retains at most max finished jobs (queued,
// running, and still-unwinding cancelled jobs are never evicted; the WAL
// is not touched).
func (st *store) evictTerminal(max int) {
	if max <= 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	finished := 0
	for _, id := range st.order {
		if st.jobs[id].evictable() {
			finished++
		}
	}
	if finished <= max {
		return
	}
	kept := st.order[:0]
	for _, id := range st.order {
		if finished > max && st.jobs[id].evictable() {
			delete(st.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
}

// get looks a job up by ID.
func (st *store) get(id string) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jobs[id]
}

// list returns every job in submission order.
func (st *store) list() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Job, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id])
	}
	return out
}

// insertLoaded re-registers a persisted terminal job under its original ID,
// bumping the sequence counter past it so new IDs never collide.
func (st *store) insertLoaded(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.jobs[j.ID]; dup {
		return
	}
	var n int
	if _, err := fmt.Sscanf(j.ID, "job-%06d", &n); err == nil && n > st.seq {
		st.seq = n
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	sort.Strings(st.order)
}

// jobFromPersist rehydrates a terminal job record from a WAL terminal
// record's persistJSON. The returned job is fully finished: done is closed
// and bc is nil.
func jobFromPersist(v persistJSON) *Job {
	j := &Job{
		ID: v.ID, Kind: v.Kind, Name: v.Name, tenant: v.Tenant,
		status: v.Status, submitted: v.SubmittedAt,
		wall: v.WallSeconds, errMsg: v.Error,
		results: v.Results,
		cases:   v.Cases,
		done:    make(chan struct{}),
	}
	if v.Result != nil {
		j.results = []*trainer.Result{v.Result}
	}
	if v.StartedAt != nil {
		j.started = *v.StartedAt
	}
	if v.FinishedAt != nil {
		j.finished = *v.FinishedAt
	}
	if v.Report != nil {
		// Rehydrate the report far enough for view() to re-render it:
		// the table keeps its pre-formatted cells.
		rep := &experiments.Report{
			ID: v.Report.ID, Title: v.Report.Title, Paper: v.Report.Paper,
			Notes: v.Report.Notes, Values: v.Report.Values,
		}
		if v.Report.Table != nil {
			rep.Table = &stats.Table{
				Title:   v.Report.Table.Title,
				Columns: v.Report.Table.Columns,
				Rows:    v.Report.Table.Rows,
			}
		}
		j.report = rep
	}
	close(j.done)
	return j
}
