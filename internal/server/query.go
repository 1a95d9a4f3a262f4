// GET/POST /v1/query: the relational query surface over finished jobs. The
// handler gathers every completed job's captured cases — a spec job's whole
// sweep grid, a single job's one run — by reference into a query.Store,
// executes the JSON query AST against it, and streams the result as NDJSON,
// flushing per row so clients see rows as they are produced. The request
// context drives the operator pipeline, so a client that disconnects
// mid-stream cancels the scan instead of computing rows nobody reads.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"datastall/internal/experiments"
	"datastall/internal/query"
)

// handleQuery serves one query. GET passes the query document URL-encoded
// in ?q= (absent: the default scan of every case); POST passes it as the
// request body.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src := []byte("{}")
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeErr(w, http.StatusRequestEntityTooLarge, codeTooLarge,
					"query body over the %d-byte limit", tooBig.Limit)
				return
			}
			writeErr(w, http.StatusBadRequest, codeBadRequest, "reading body: %v", err)
			return
		}
		src = body
	} else if qs := r.URL.Query().Get("q"); qs != "" {
		src = []byte(qs)
	}
	q, err := query.ParseQuery(src)
	if err != nil {
		writeErrFrom(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	rows, err := query.New(s.queryStore()).Run(r.Context(), q)
	if err != nil {
		// Validation re-runs inside Run; unreachable after ParseQuery, but
		// classify it correctly rather than 500 if the two ever diverge.
		writeErrFrom(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	s.metrics.queries.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	fw := &flushWriter{w: w, rc: http.NewResponseController(w)}
	n, err := query.WriteNDJSON(fw, rows)
	s.metrics.queryRows.Add(int64(n))
	if err != nil {
		// Headers are gone, so the status can't change — but silent NDJSON
		// truncation is indistinguishable from a complete result. Append a
		// final error-envelope line (the same typed shape every non-2xx
		// response carries) so clients can detect the aborted stream; if
		// the failure was the client's own disconnect, the write just fails
		// too and nobody is misled.
		s.log.Warn("query stream aborted", "rows", n, "error", err)
		line, merr := json.Marshal(map[string]errorBody{
			"error": {Code: codeInternal, Message: fmt.Sprintf("stream aborted after %d rows: %v", n, err)},
		})
		if merr == nil {
			fw.Write(append(line, '\n'))
			fw.Flush()
		}
	}
}

// queryStore gathers every completed job's cases into a store, by
// reference: captures are immutable once made, so the store copies no
// result. Jobs are visited in submission order, so case_ids are stable
// across queries for a given job history. Jobs rehydrated from WAL terminal
// records serve the case capture stored in the record, so a restart keeps
// history queryable.
func (s *Server) queryStore() *query.Store {
	jobs := s.store.list()
	st := query.NewStore()
	st.Grow(len(jobs)) // exact when every job is a single run
	for _, j := range jobs {
		st.AddCases(j.caseResults())
	}
	return st
}

// flushWriter adapts an http.ResponseWriter to query.WriteNDJSON's
// per-row flush, tolerating transports that cannot flush.
type flushWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f *flushWriter) Write(p []byte) (int, error) { return f.w.Write(p) }

func (f *flushWriter) Flush() error {
	if err := f.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// caseResults exposes a completed job's runs, read-only, for the query
// surface and terminal WAL records: the captured grid cells of
// a spec job, or the one capture in job.cases — a single run's, taken once
// by finishRun, or the one stored in a WAL terminal record the job was
// rehydrated from (a loaded record without a capture stays invisible
// rather than wrong).
func (job *Job) caseResults() []*experiments.CaseResult {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.status != StatusCompleted {
		return nil
	}
	if job.report != nil && len(job.report.Cases) > 0 {
		return job.report.Cases
	}
	return job.cases
}
