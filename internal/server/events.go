// Event streaming: GET /v1/jobs/{id}/events serves a job's Observer events
// live, as NDJSON (default) or Server-Sent Events (Accept:
// text/event-stream or ?format=sse). Each stream is one Broadcaster
// subscription — a slow client overflows only its own ring (the drop count
// is reported in its terminal event) and can never stall the simulation.
//
// A batch ({"jobs": [...]}) streams a case_done event with each entry's
// index and result as the entry is captured, so a coordinator can hand a
// cell on before the batch ends; a dropped case_done costs nothing, since
// job_done's results carry every entry's result and are the authoritative
// delivery.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// wireEvent is the JSON form of one stream event. Type is the trainer
// event's snake_case name ("job_started", "epoch_started", "epoch_ended",
// "job_ended"), an Annotation's kind ("case_started", "case_done"), or one
// of the service's own markers: "status" (the snapshot that opens every
// stream) and "job_done" (the terminal marker that closes it).
type wireEvent struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Time is the event's simulation time.
	Time float64 `json:"time,omitempty"`

	// status / job_done fields.
	Status  Status `json:"status,omitempty"`
	Error   string `json:"error,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`

	// job_done output: a completed single job's result, or a batch's
	// results in entry order (a spec's report stays behind GET
	// /v1/jobs/{id}), and the job's span records when its submission
	// carried a traceparent. A case_done event carries its entry's result.
	Result  *trainer.Result   `json:"result,omitempty"`
	Results []*trainer.Result `json:"results,omitempty"`
	Spans   []obs.SpanRecord  `json:"spans,omitempty"`

	// job_started fields.
	Epochs  int `json:"epochs,omitempty"`
	Servers int `json:"servers,omitempty"`
	GPUs    int `json:"gpus,omitempty"`

	// epoch_started / epoch_ended fields.
	Epoch          *int                `json:"epoch,omitempty"`
	Stats          *trainer.EpochStats `json:"stats,omitempty"`
	CacheUsedBytes float64             `json:"cache_used_bytes,omitempty"`

	// Annotation fields (e.g. case_started sweep progress; case_done's
	// index).
	Text  string `json:"text,omitempty"`
	Index int    `json:"index,omitempty"`
	Total int    `json:"total,omitempty"`
}

// toWire converts a trainer event to its wire form.
func toWire(jobID string, ev trainer.Event) wireEvent {
	switch e := ev.(type) {
	case trainer.JobStarted:
		return wireEvent{
			Type: "job_started", Job: jobID, Time: e.Time,
			Epochs: e.Epochs, Servers: e.Servers, GPUs: e.GPUsPerServer,
		}
	case trainer.EpochStarted:
		ep := e.Epoch
		return wireEvent{Type: "epoch_started", Job: jobID, Time: e.Time, Epoch: &ep}
	case trainer.EpochEnded:
		ep := e.Epoch
		st := e.Stats
		return wireEvent{
			Type: "epoch_ended", Job: jobID, Time: e.Time, Epoch: &ep,
			Stats: &st, CacheUsedBytes: e.CacheUsedBytes,
		}
	case trainer.JobEnded:
		// The full result is not inlined here: it rides once on the
		// closing job_done.
		return wireEvent{Type: "job_ended", Job: jobID, Time: e.Time}
	case trainer.Annotation:
		return wireEvent{
			Type: e.Kind, Job: jobID, Time: e.Time,
			Text: e.Text, Index: e.Index, Total: e.Total, Result: e.Result,
		}
	}
	return wireEvent{Type: fmt.Sprintf("%T", ev), Job: jobID}
}

// wantsSSE reports whether the client asked for Server-Sent Events.
func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("format") == "sse" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamWriter serializes wire events as NDJSON or SSE, flushing each.
type streamWriter struct {
	w     http.ResponseWriter
	flush http.Flusher
	sse   bool
}

func (sw *streamWriter) write(ev wireEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if sw.sse {
		_, err = fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", ev.Type, b)
	} else {
		_, err = fmt.Fprintf(sw.w, "%s\n", b)
	}
	if err == nil {
		sw.flush.Flush()
	}
	return err
}

// handleJobEvents streams one job's events until the job finishes or the
// client goes away.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, codeInternal, "response writer cannot stream")
		return
	}
	sw := &streamWriter{w: w, flush: flusher, sse: wantsSSE(r)}
	if sw.sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Subscribe before reading the status snapshot: anything published
	// after the snapshot is buffered in the subscription, so the client
	// misses nothing in between.
	var sub *trainer.Subscription
	if j.bc != nil {
		sub = j.bc.Subscribe(s.cfg.SubscriberBuffer)
		defer sub.Cancel()
	}
	s.metrics.subscribers.Add(1)
	defer s.metrics.subscribers.Add(-1)

	if err := sw.write(wireEvent{Type: "status", Job: j.ID, Status: j.StatusNow()}); err != nil {
		return
	}
	var dropped uint64
	if sub != nil {
		for {
			ev, err := sub.Next(r.Context())
			if err == trainer.ErrSubscriptionClosed {
				break
			}
			if err != nil {
				return // client disconnected
			}
			if werr := sw.write(toWire(j.ID, ev)); werr != nil {
				return
			}
		}
		dropped = sub.Dropped()
	}
	// finalize ended the trace before it closed the stream, so the spans
	// are complete.
	v := j.view(j.Kind != KindSpec)
	done := wireEvent{
		Type: "job_done", Job: j.ID, Status: v.Status,
		Error: v.Error, Dropped: dropped, Result: v.Result, Results: v.Results,
	}
	if j.joinedTrace {
		done.Spans = j.tracer.Export()
	}
	sw.write(done)
}
