package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// TestE2ESpecByteIdentical is the service's core fidelity guarantee: a spec
// submitted over HTTP produces a result byte-identical to running the same
// spec in-process through RunSpec.
func TestE2ESpecByteIdentical(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	if st := waitTerminal(t, srv, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, srv.store.get(id).view(true).Error)
	}
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
	var v jobJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Report == nil {
		t.Fatal("completed spec job has no report")
	}
	viaHTTP, err := json.Marshal(v.Report)
	if err != nil {
		t.Fatal(err)
	}

	sp, err := experiments.LoadSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiments.RunSpec(context.Background(), sp, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := json.Marshal(toReportJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	if string(viaHTTP) != string(inProcess) {
		t.Fatalf("HTTP result differs from in-process RunSpec:\nhttp:   %s\ndirect: %s", viaHTTP, inProcess)
	}
}

// cancelJobBody runs long enough (~seconds uncancelled) that a DELETE
// triggered by the first streamed epoch event lands mid-run with a wide
// margin.
const cancelJobBody = `{"job": {"model": "resnet18", "dataset": "imagenet-1k", "scale": 0.2, "epochs": 50, "batch": 16, "loader": "coordl", "cache_fraction": 0.35}}`

// TestE2ECancelMidRunOverHTTP submits a long job, watches its NDJSON event
// stream, DELETEs at the first epoch boundary, and requires: a prompt
// cancel response with status "cancelled", an aborted run (far fewer epochs
// than requested), and a terminal job_done marker carrying the same status.
func TestE2ECancelMidRunOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	id := submitID(t, ts, cancelJobBody)

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	epochsEnded := 0
	sawDone := false
	var doneEvent wireEvent
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", scanner.Text(), err)
		}
		switch ev.Type {
		case "epoch_ended":
			epochsEnded++
			if epochsEnded == 1 {
				start := time.Now()
				dresp, dbody := doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+id)
				if dresp.StatusCode != 200 || !strings.Contains(dbody, string(StatusCancelled)) {
					t.Fatalf("DELETE: %d %s", dresp.StatusCode, dbody)
				}
				if d := time.Since(start); d > 5*time.Second {
					t.Fatalf("DELETE took %v, want prompt", d)
				}
			}
		case "job_done":
			sawDone = true
			doneEvent = ev
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a job_done marker")
	}
	if doneEvent.Status != StatusCancelled {
		t.Fatalf("job_done status %s, want cancelled", doneEvent.Status)
	}
	if epochsEnded >= 50 {
		t.Fatalf("saw %d epoch_ended events; the run was never aborted", epochsEnded)
	}
	if st := srv.store.get(id).StatusNow(); st != StatusCancelled {
		t.Fatalf("store status %s, want cancelled", st)
	}
}

// TestE2EEventStreamSSE checks the SSE rendering and that a spec job's
// stream interleaves the experiments layer's case_started annotations.
func TestE2EEventStreamSSE(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Park a long job on the single worker so the spec job stays queued
	// until the stream below is provably attached.
	blocker := submitID(t, ts, cancelJobBody)
	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var eventLines, caseStarted, caseTotal int
	released := false
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !released {
			// The opening status snapshot is written after the
			// subscription attaches; once it arrives, no later event can
			// be missed, so it is safe to let the spec job start.
			if resp, body := doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+blocker); resp.StatusCode != 200 {
				t.Fatalf("DELETE blocker: %d %s", resp.StatusCode, body)
			}
			released = true
		}
		if strings.HasPrefix(line, "event: ") {
			eventLines++
			if line == "event: case_started" {
				caseStarted++
			}
			continue
		}
		if strings.HasPrefix(line, "data: ") && caseStarted == 1 && caseTotal == 0 {
			var ev wireEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			if ev.Type == "case_started" {
				caseTotal = ev.Total
				if !strings.Contains(ev.Text, "row=") {
					t.Fatalf("case_started text %q has no row", ev.Text)
				}
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if eventLines == 0 {
		t.Fatal("no SSE event: lines seen")
	}
	// cache-sweep is a 5-row x 2-case sweep: 10 cells.
	if caseStarted != 10 || caseTotal != 10 {
		t.Fatalf("saw %d case_started (total field %d), want 10/10", caseStarted, caseTotal)
	}
	if st := waitTerminal(t, srv, id, time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
}

// TestE2EJobDoneFollowsTerminalRecord: a job_done line on a job's event
// stream means the job's terminal record is already in the WAL, so a
// client that reacts to job_done by reading durable state finds the job
// finished. The hook delays every terminal append; a stream that closed
// before the append would deliver job_done inside that window and fail.
func TestE2EJobDoneFollowsTerminalRecord(t *testing.T) {
	t.Cleanup(func() { testHookWALTerminal = nil })
	testHookWALTerminal = func() { time.Sleep(500 * time.Millisecond) }
	walDir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	// Park a long job on the single worker so the streamed job is still
	// queued when its stream attaches.
	blocker := submitID(t, ts, cancelJobBody)
	id := submitID(t, ts, tinyJob)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	released, done := false, false
	for !done && scanner.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", scanner.Text(), err)
		}
		if !released {
			// The opening status line proves the subscription is
			// attached; only now let the streamed job run.
			if resp, body := doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+blocker); resp.StatusCode != 200 {
				t.Fatalf("DELETE blocker: %d %s", resp.StatusCode, body)
			}
			released = true
		}
		done = ev.Type == "job_done"
	}
	if !done {
		t.Fatalf("stream ended without job_done: %v", scanner.Err())
	}
	rec, err := wal.ReadAll(walDir)
	if err != nil {
		t.Fatal(err)
	}
	terminal := false
	for _, r := range rec.Records {
		terminal = terminal || (r.JobID == id && r.Type == wal.TypeTerminal)
	}
	if !terminal {
		t.Fatalf("job_done streamed before job %s's terminal record was in the WAL", id)
	}
	if st := waitTerminal(t, srv, id, 10*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	waitTerminal(t, srv, blocker, 10*time.Second)
}

// streamJobDone reads a job's NDJSON event stream and returns its closing
// job_done line, raw.
func streamJobDone(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for scanner.Scan() {
		last = append(last[:0], scanner.Bytes()...)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	var ev wireEvent
	if err := json.Unmarshal(last, &ev); err != nil || ev.Type != "job_done" {
		t.Fatalf("job %s: stream ended on %q, not job_done (%v)", id, last, err)
	}
	return last
}

// submitTraced submits body, continuing a caller's trace when traceparent
// is set, and returns the accepted job ID.
func submitTraced(t *testing.T, ts *httptest.Server, body, traceparent string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	return acc.ID
}

// TestEventStreamJobDonePayload: job_done carries the job's output, so the
// coordinator needs no second request per case. A completed single job's
// result is JSON-identical to GET /v1/jobs/{id}'s; spec jobs and failed
// jobs carry none; the job's spans appear exactly when the submission sent
// a traceparent, and they are complete.
func TestEventStreamJobDonePayload(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	const parent = "00-0123456789abcdef0123456789abcdef-00000000000000aa-01"
	srv, ts := newTestServer(t, Config{Workers: 2})
	// A failing runner that produced a result anyway: a failed job must
	// still ship none.
	failing, fts := newTestServer(t, Config{Workers: 1, runJob: func(context.Context, *Job) (*experiments.Report, []*trainer.Result, error) {
		return nil, []*trainer.Result{{TotalTime: 1}}, errors.New("injected failure")
	}})
	for _, tc := range []struct {
		name        string
		srv         *Server
		ts          *httptest.Server
		body        string
		traceparent string
		status      Status
		result      bool
	}{
		{"job", srv, ts, tinyJob, "", StatusCompleted, true},
		{"job_traced", srv, ts, tinyJob, parent, StatusCompleted, true},
		{"spec", srv, ts, `{"spec": ` + string(raw) + `}`, "", StatusCompleted, false},
		{"spec_traced", srv, ts, `{"spec": ` + string(raw) + `}`, parent, StatusCompleted, false},
		{"failed_traced", failing, fts, tinyJob, parent, StatusFailed, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := submitTraced(t, tc.ts, tc.body, tc.traceparent)
			line := streamJobDone(t, tc.ts, id)
			var done struct {
				Status Status           `json:"status"`
				Result json.RawMessage  `json:"result"`
				Spans  []obs.SpanRecord `json:"spans"`
			}
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			if done.Status != tc.status {
				t.Fatalf("job_done status %s, want %s: %s", done.Status, tc.status, line)
			}
			switch {
			case tc.result:
				_, body := getJSON(t, tc.ts.URL+"/v1/jobs/"+id)
				var v struct {
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal([]byte(body), &v); err != nil {
					t.Fatal(err)
				}
				var got, want bytes.Buffer
				if err := json.Compact(&got, done.Result); err != nil {
					t.Fatalf("job_done result: %v", err)
				}
				if err := json.Compact(&want, v.Result); err != nil {
					t.Fatalf("GET result: %v", err)
				}
				if got.String() != want.String() {
					t.Fatalf("job_done result differs from GET /v1/jobs/%s:\njob_done: %s\nGET:      %s", id, got.String(), want.String())
				}
			case done.Result != nil:
				t.Fatalf("job_done of a %s job carries a result: %s", tc.name, done.Result)
			}
			if tc.traceparent == "" {
				if done.Spans != nil {
					t.Fatalf("untraced job_done carries %d spans", len(done.Spans))
				}
				return
			}
			// The spans are the job's whole, closed trace: the same records
			// ?format=spans serves once the job is terminal.
			want := tc.srv.store.get(id).tracer.Export()
			got, _ := json.Marshal(done.Spans)
			exp, _ := json.Marshal(want)
			if string(got) != string(exp) || len(spansNamed(done.Spans, "job")) != 1 {
				t.Fatalf("job_done spans differ from the job's finished trace:\njob_done: %s\ntrace:    %s", got, exp)
			}
		})
	}
}

// TestE2ESubmitBuiltinSpecByName: the documented {"spec_name": "fig5"}
// submission must actually run — built-in specs carry no scale of their
// own, so the handler has to fill in the registry experiment's
// DefaultScale exactly as the CLI path does.
func TestE2ESubmitBuiltinSpecByName(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	id := submitID(t, ts, `{"spec_name": "fig5"}`)
	if st := waitTerminal(t, srv, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("fig5 by name ended %s (%s)", st, srv.store.get(id).view(true).Error)
	}
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
	var v jobJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Report == nil || v.Report.Table == nil || len(v.Report.Table.Rows) == 0 {
		t.Fatalf("fig5 by name produced no table: %s", body)
	}
	// An explicit request scale still wins over the default.
	id2 := submitID(t, ts, `{"spec_name": "fig5", "scale": 0.02}`)
	if st := waitTerminal(t, srv, id2, 120*time.Second); st != StatusCompleted {
		t.Fatalf("fig5 with explicit scale ended %s", st)
	}
}

// TestE2EMetricsReconcile drives one job to each terminal state and
// requires /metrics to agree exactly with the job store.
func TestE2EMetricsReconcile(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	done := submitID(t, ts, tinyJob)
	if st := waitTerminal(t, srv, done, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	// A spec whose base never sets a scale fails at run time.
	failing := submitID(t, ts, `{"spec": {"name": "noscale", "row_header": ["model"],
		"base": {"model": "resnet18", "epochs": 1},
		"rows": {"cases": [{"set": {}}]},
		"columns": [{"label": "s", "metric": "epoch_s"}]}}`)
	if st := waitTerminal(t, srv, failing, 60*time.Second); st != StatusFailed {
		t.Fatalf("no-scale spec ended %s, want failed", st)
	}
	cancelled := submitID(t, ts, cancelJobBody)
	waitStatus(t, srv, cancelled, StatusRunning, 10*time.Second)
	if resp, body := doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+cancelled); resp.StatusCode != 200 {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, body)
	}
	if st := waitTerminal(t, srv, cancelled, 60*time.Second); st != StatusCancelled {
		t.Fatalf("job ended %s, want cancelled", st)
	}

	_, text := getJSON(t, ts.URL+"/metrics")
	metric := func(name string) int {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v int
				fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%d", &v)
				return v
			}
		}
		t.Fatalf("metric %s missing from /metrics:\n%s", name, text)
		return -1
	}
	byStatus := map[Status]int{}
	for _, j := range srv.store.list() {
		byStatus[j.StatusNow()]++
	}
	checks := map[string]int{
		"stallserved_jobs_submitted_total": len(srv.store.list()),
		"stallserved_jobs_completed_total": byStatus[StatusCompleted],
		"stallserved_jobs_failed_total":    byStatus[StatusFailed],
		"stallserved_jobs_cancelled_total": byStatus[StatusCancelled],
		"stallserved_jobs_queued":          0,
		"stallserved_jobs_running":         0,
		"stallserved_queue_depth":          0,
		"stallserved_event_subscribers":    0,
		// All three jobs left the queue, so the queue-wait histogram saw
		// each once; only the completed tinyJob's single case reached the
		// success-path latency observation.
		"stallserved_queue_wait_seconds_count": 3,
		"stallserved_case_seconds_count":       1,
	}
	for name, want := range checks {
		if got := metric(name); got != want {
			t.Errorf("%s = %d, want %d (store: %v)", name, got, want, byStatus)
		}
	}
	if metric("stallserved_events_published_total") == 0 {
		t.Error("no events counted across three jobs")
	}
}

// TestE2EBatchStreamsCaseDone: a {"jobs": [...]} submission runs every
// entry as one job. Its stream carries a case_done event per entry, with
// the entry's index and result, before job_done, whose results repeat
// them in entry order; and each result is byte-identical to the same job
// submitted alone. Entry 2 repeats entry 0, so the batch's dedupe serves it.
func TestE2EBatchStreamsCaseDone(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	jobs := []string{
		`{"model": "resnet18", "scale": 0.005, "epochs": 2, "cache_fraction": 0.5}`,
		`{"model": "resnet18", "scale": 0.005, "epochs": 2, "seed": 7}`,
		`{"model": "resnet18", "scale": 0.005, "epochs": 2, "cache_fraction": 0.5}`,
	}
	// Park a long job on the single worker so the batch stays queued until
	// its stream is attached.
	blocker := submitID(t, ts, cancelJobBody)
	id := submitID(t, ts, `{"jobs": [`+strings.Join(jobs, ",")+`]}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamed := make([]string, len(jobs))
	var done struct {
		Type    string            `json:"type"`
		Status  Status            `json:"status"`
		Results []json.RawMessage `json:"results"`
	}
	dec := json.NewDecoder(resp.Body)
	for first := true; done.Type != "job_done"; first = false {
		var ev struct {
			Type   string          `json:"type"`
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("stream ended before job_done: %v", err)
		}
		if first {
			// The opening status line means the subscription is attached.
			if r, body := doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+blocker); r.StatusCode != 200 {
				t.Fatalf("DELETE blocker: %d %s", r.StatusCode, body)
			}
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "case_done":
			if ev.Index < 0 || ev.Index >= len(jobs) || streamed[ev.Index] != "" || len(ev.Result) == 0 {
				t.Fatalf("case_done out of place: %s", raw)
			}
			streamed[ev.Index] = string(ev.Result)
		case "job_done":
			if err := json.Unmarshal(raw, &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if done.Status != StatusCompleted || len(done.Results) != len(jobs) {
		t.Fatalf("job_done: status %s with %d results, want completed with %d", done.Status, len(done.Results), len(jobs))
	}
	for k, job := range jobs {
		if streamed[k] != string(done.Results[k]) {
			t.Fatalf("entry %d: case_done result differs from job_done's", k)
		}
		single := submitID(t, ts, `{"job": `+job+`}`)
		if st := waitTerminal(t, srv, single, 60*time.Second); st != StatusCompleted {
			t.Fatalf("single job %d ended %s", k, st)
		}
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+single)
		var v struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		var alone bytes.Buffer
		if err := json.Compact(&alone, v.Result); err != nil {
			t.Fatal(err)
		}
		if alone.String() != streamed[k] {
			t.Fatalf("entry %d: batch result differs from the job run alone", k)
		}
	}
}
