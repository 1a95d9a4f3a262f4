// Trace plumbing: the per-job span tree recorded by internal/obs, served
// over HTTP and merged across the coordinator→worker hop.
//
// Every submitted job gets a Tracer; its spans cover queue wait, the run,
// each grid case (with memo-lookup events and per-epoch stall-attribution
// sub-spans on the simulation clock), WAL appends, and — in coordinator
// mode — one attempt span per dispatch with the worker's own trace
// grafted under the successful attempt, so one distributed sweep yields
// one merged trace (the worker returns its spans on the job_done line of
// the event stream the coordinator follows). GET /v1/jobs/{id}/trace
// serves the Chrome trace-event form (Perfetto / chrome://tracing
// viewable) by default and the flat span-record form with ?format=spans.
package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"

	"datastall/internal/wal"
)

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.tracer == nil {
		writeErr(w, http.StatusNotFound, codeNotFound,
			"job %s has no trace (rehydrated from persistence)", j.ID)
		return
	}
	if r.URL.Query().Get("format") == "spans" {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"trace_id": j.tracer.TraceID(),
			"spans":    j.tracer.Export(),
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.tracer.WriteChrome(w)
}

// endTrace closes every span the job still has open (a cancelled or
// failed run must not leave dangling spans) and, with Config.TraceDir
// set, dumps the merged trace crash-atomically. Called from finalize,
// before the event stream and done close, so job_done and waiters observe
// a complete trace.
func (s *Server) endTrace(j *Job) {
	if j.tracer == nil {
		return
	}
	j.tracer.Finish()
	if s.cfg.TraceDir == "" {
		return
	}
	if err := os.MkdirAll(s.cfg.TraceDir, 0o755); err != nil {
		j.logger().Warn("trace: dir", "error", err)
		return
	}
	var buf bytes.Buffer
	if err := j.tracer.WriteChrome(&buf); err != nil {
		j.logger().Warn("trace: encode", "error", err)
		return
	}
	path := filepath.Join(s.cfg.TraceDir, j.ID+".trace.json")
	if err := wal.AtomicWriteFile(path, buf.Bytes(), 0o644); err != nil {
		j.logger().Warn("trace: write", "path", path, "error", err)
	}
}
