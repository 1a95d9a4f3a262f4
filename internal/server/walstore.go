// WAL integration: the job lifecycle as an append-only record stream
// (internal/wal), the service's one durability path. Every client-visible
// transition appends a record — submitted
// before the 202, case_done as each grid cell's result is captured,
// cancel_requested when a DELETE verdict is returned, terminal with the
// full wire form — so a kill -9 at any point recovers to a state the
// client was already told about.
//
// Execution meets the log in the one cell executor (experiments.Executor,
// configured in scheduler.go): a recovered job's logged cells are its
// Resume map, served without re-running, and its Done hook logs every
// newly captured cell — duplicates included — as a case_done record.
//
// Mutate in-memory state BEFORE appending its record. A crash between the
// two loses both together (the record was never durable, so the client
// never saw it), and a compaction, which keeps only the jobs the store
// holds, never drops a job whose records it is folding.
package server

import (
	"encoding/json"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// walSubmitted is the TypeSubmitted payload: everything needed to rebuild
// and re-enqueue the job after a crash.
type walSubmitted struct {
	Kind        string                `json:"kind"`
	Name        string                `json:"name,omitempty"`
	Tenant      string                `json:"tenant,omitempty"`
	SubmittedAt time.Time             `json:"submitted_at"`
	Spec        *experiments.Spec     `json:"spec,omitempty"`
	Job         *experiments.JobSpec  `json:"job,omitempty"`
	Jobs        []experiments.JobSpec `json:"jobs,omitempty"`
	Opts        experiments.Options   `json:"opts"`
}

// walStarted is the TypeStarted payload.
type walStarted struct {
	StartedAt time.Time `json:"started_at"`
}

// walCase is the TypeCaseDone payload: one grid cell's captured result
// (cell 0 for a single-job submission, cell k for a batch's jobs[k]). trainer.Result round-trips JSON
// exactly (Go emits shortest-roundtrip floats — the same property
// coordinator mode already leans on), so a resumed sweep assembles a
// report byte-identical to an uninterrupted run.
type walCase struct {
	Index  int             `json:"index"`
	Result *trainer.Result `json:"result"`
}

// The TypeTerminal payload is persistJSON; replay rehydrates it through
// jobFromPersist.

// walAppend appends one record, counting it and tracing it as a
// wal_append span under the job's root; a write failure is logged, not
// fatal — the service keeps running on its in-memory state.
func (s *Server) walAppend(j *Job, rec wal.Record) {
	if s.wal == nil {
		return
	}
	sp := j.span.Start("wal_append")
	sp.SetAttr("type", string(rec.Type))
	err := s.wal.Append(rec)
	sp.End()
	if err != nil {
		j.logger().Warn("wal append failed", "type", string(rec.Type), "error", err)
		return
	}
	s.metrics.walAppends.Add(1)
}

func (s *Server) walRecord(j *Job, typ wal.Type, payload interface{}) {
	if s.wal == nil {
		return
	}
	b, err := json.Marshal(payload)
	if err != nil {
		j.logger().Warn("wal encode failed", "type", string(typ), "error", err)
		return
	}
	s.walAppend(j, wal.Record{Type: typ, JobID: j.ID, Payload: b})
}

func (s *Server) walSubmitted(j *Job) {
	v := walSubmitted{
		Kind: j.Kind, Name: j.Name, Tenant: j.tenant, SubmittedAt: j.submitted,
		Spec: j.spec, Opts: j.opts,
	}
	switch j.Kind {
	case KindJob:
		v.Job = &j.jobs[0]
	case KindBatch:
		v.Jobs = j.jobs
	}
	s.walRecord(j, wal.TypeSubmitted, v)
}

func (s *Server) walStarted(j *Job) {
	j.mu.Lock()
	at := j.started
	j.mu.Unlock()
	s.walRecord(j, wal.TypeStarted, walStarted{StartedAt: at})
}

// testHookWALTerminal, when set, runs just before each terminal record is
// appended. Tests set it before starting a server to widen the window in
// which a finished job is not yet durable.
var testHookWALTerminal func()

// walTerminal logs the job's final record and, every WALCompactEvery
// terminals, starts a compaction unless one is already running.
func (s *Server) walTerminal(j *Job) {
	if s.wal == nil {
		return
	}
	if testHookWALTerminal != nil {
		testHookWALTerminal()
	}
	s.walRecord(j, wal.TypeTerminal, persistJSON{jobJSON: *j.view(true), Cases: j.caseResults()})
	every := s.cfg.WALCompactEvery
	if every <= 0 {
		every = 64
	}
	if s.walTerminals.Add(1)%int64(every) == 0 && s.compactMu.TryLock() {
		go func() { // behind the job; Drain waits for compactMu
			defer s.compactMu.Unlock()
			start := time.Now()
			if err := s.wal.Compact(s.walKeep); err != nil {
				s.log.Warn("wal compact failed", "error", err)
				return
			}
			s.metrics.walCompact.Observe(time.Since(start).Seconds())
			s.metrics.walCompactions.Add(1)
		}()
	}
}

// walKeep picks the records a compaction carries into the checkpoint, by
// the rule replayWAL folds them with: a job whose terminal record is among
// heads keeps only its last one, any other job keeps all of its records,
// and a job the store has evicted keeps none. Records are checked in log
// order, so a job evicted mid-scan keeps a prefix of its records, which
// its terminal record in a later segment subsumes.
func (s *Server) walKeep(heads []wal.Record) []bool {
	terminal := map[string]int{} // job -> index of its last terminal record
	for i, h := range heads {
		if h.Type == wal.TypeTerminal {
			terminal[h.JobID] = i
		}
	}
	keep := make([]bool, len(heads))
	for i, h := range heads {
		t, finished := terminal[h.JobID]
		keep[i] = (!finished || t == i) && s.store.get(h.JobID) != nil
	}
	return keep
}

// walReplayState accumulates one job's records during replay.
type walReplayState struct {
	submitted *walSubmitted
	started   *walStarted
	cases     map[int]*trainer.Result
	cancelled bool
	terminal  *persistJSON
}

// replayWAL folds the recovered record stream into jobs: terminal records
// rehydrate as finished jobs; submitted-but-unfinished jobs come
// back as pending, carrying their logged case results to resume from.
// Malformed or orphaned records count as load errors and are skipped — a
// corrupt record must not keep the service from starting. Returns the
// pending jobs to re-enqueue (in submission order) and the error count.
func (s *Server) replayWAL(records []wal.Record) (pending []*Job, loadErrs int) {
	byJob := map[string]*walReplayState{}
	var order []string
	state := func(id string) *walReplayState {
		st := byJob[id]
		if st == nil {
			st = &walReplayState{cases: map[int]*trainer.Result{}}
			byJob[id] = st
			order = append(order, id)
		}
		return st
	}
	for _, rec := range records {
		if rec.JobID == "" {
			loadErrs++
			s.log.Warn("wal replay: record with no job id, skipping", "type", string(rec.Type))
			continue
		}
		switch rec.Type {
		case wal.TypeSubmitted:
			var v walSubmitted
			if err := json.Unmarshal(rec.Payload, &v); err != nil {
				loadErrs++
				s.log.Warn("wal replay: bad record", "type", string(rec.Type), "job_id", rec.JobID, "error", err)
				continue
			}
			state(rec.JobID).submitted = &v
		case wal.TypeStarted:
			var v walStarted
			if err := json.Unmarshal(rec.Payload, &v); err != nil {
				loadErrs++
				s.log.Warn("wal replay: bad record", "type", string(rec.Type), "job_id", rec.JobID, "error", err)
				continue
			}
			state(rec.JobID).started = &v
		case wal.TypeCaseDone:
			var v walCase
			if err := json.Unmarshal(rec.Payload, &v); err != nil || v.Result == nil {
				loadErrs++
				s.log.Warn("wal replay: bad case payload", "type", string(rec.Type), "job_id", rec.JobID)
				continue
			}
			state(rec.JobID).cases[v.Index] = v.Result
		case wal.TypeCancelRequested:
			state(rec.JobID).cancelled = true
		case wal.TypeTerminal:
			var v persistJSON
			if err := json.Unmarshal(rec.Payload, &v); err != nil || v.ID == "" || !v.Status.Terminal() {
				loadErrs++
				s.log.Warn("wal replay: bad terminal payload", "type", string(rec.Type), "job_id", rec.JobID)
				continue
			}
			state(rec.JobID).terminal = &v
		default:
			loadErrs++
			s.log.Warn("wal replay: unknown record type, skipping", "type", string(rec.Type), "job_id", rec.JobID)
		}
	}

	for _, id := range order {
		st := byJob[id]
		switch {
		case st.terminal != nil:
			s.store.insertLoaded(jobFromPersist(*st.terminal))
		case st.submitted == nil:
			// started/case_done records whose submitted record was lost to
			// corruption: nothing to rebuild.
			loadErrs++
			s.log.Warn("wal replay: lifecycle records but no submitted record, skipping", "job_id", id)
		case st.cancelled:
			// The client was told "cancelled"; honour the verdict even
			// though the crash beat the worker to the terminal record, and
			// log that record now, so the next compaction folds the job to
			// it instead of carrying its whole history.
			j := pendingFromWAL(id, st)
			j.status = StatusCancelled
			j.errMsg = "cancelled"
			j.finished = j.submitted
			j.bc = nil
			close(j.done)
			s.store.insertLoaded(j)
			s.walRecord(j, wal.TypeTerminal, persistJSON{jobJSON: *j.view(true)})
		default:
			j := pendingFromWAL(id, st)
			s.store.insertLoaded(j)
			pending = append(pending, j)
		}
	}
	return pending, loadErrs
}

// pendingFromWAL rebuilds an interrupted job as a fresh queued Job carrying
// its recovered case results.
func pendingFromWAL(id string, st *walReplayState) *Job {
	v := st.submitted
	j := &Job{
		ID: id, Kind: v.Kind, Name: v.Name, tenant: v.Tenant,
		spec: v.Spec, jobs: v.Jobs, opts: v.Opts,
		status: StatusQueued, submitted: v.SubmittedAt,
		resume: st.cases,
		bc:     trainer.NewBroadcaster(),
		done:   make(chan struct{}),
	}
	if v.Job != nil {
		j.jobs = []experiments.JobSpec{*v.Job}
	}
	// Resolution was validated at original submission; a failure here
	// means the WAL predates a schema change — the cell's runner surfaces
	// it at run time.
	j.cfgs = make([]trainer.Config, len(j.jobs))
	for k, js := range j.jobs {
		j.cfgs[k], _ = js.Build(v.Opts)
	}
	return j
}

// reenqueue puts a recovered pending job back on the queue with the same
// metric ordering as submit: the queued gauge before the enqueue, the
// submitted counter after it succeeds — so the reconciliation identity
// (submitted = queued + running + terminal totals) holds from the first
// scrape. A full queue fails the job rather than blocking startup.
func (s *Server) reenqueue(j *Job) {
	s.openTrace(j, "", true)
	s.metrics.queued.Add(1)
	select {
	case s.queue <- j:
		s.metrics.submitted.Add(1)
		s.metrics.walResumed.Add(1)
		j.log.Info("recovered from wal, re-queued",
			"kind", j.Kind, "name", j.Name, "cases_done", len(j.resume))
	default:
		s.metrics.queued.Add(-1)
		j.mu.Lock()
		j.status = StatusFailed
		j.errMsg = "recovered job could not be re-enqueued: queue full"
		j.finished = time.Now()
		j.mu.Unlock()
		s.metrics.submitted.Add(1)
		s.metrics.failed.Add(1)
		s.finalize(j)
		j.log.Warn("recovered from wal but the queue is full; marked failed")
	}
}
