package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datastall/internal/obs"
)

// fetchTraceRecords GETs a job's Chrome trace and re-parses it through the
// strict schema check, so every fetch in this file doubles as a validation
// of the wire form.
func fetchTraceRecords(t *testing.T, ts *httptest.Server, id string) []obs.SpanRecord {
	t.Helper()
	resp, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type %q", ct)
	}
	recs, err := obs.ParseChrome([]byte(body))
	if err != nil {
		t.Fatalf("served trace does not round-trip: %v", err)
	}
	return recs
}

// spansNamed filters records by span name.
func spansNamed(recs []obs.SpanRecord, name string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, r := range recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestTraceLocalJobSpans: a single local job's trace covers the full
// lifecycle — job root, queue_wait, run, case, simulate, per-epoch
// stall-attribution sub-spans — and every span is closed once the job is
// terminal.
func TestTraceLocalJobSpans(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	id := submitID(t, ts, tinyJob)
	if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	j := srv.store.get(id)
	<-j.done
	if n := j.tracer.OpenSpans(); n != 0 {
		t.Fatalf("%d spans still open after finalize", n)
	}
	recs := fetchTraceRecords(t, ts, id)
	for _, name := range []string{"job", "queue_wait", "run", "case", "simulate", "epoch", "gpu_busy", "fetch_stall", "prep_stall"} {
		if len(spansNamed(recs, name)) == 0 {
			t.Errorf("no %q span in trace", name)
		}
	}
	// tinyJob runs 2 epochs: the simulated-clock breakdown has one epoch
	// span per epoch, each carrying the fig-5 three-way attribution.
	if got := len(spansNamed(recs, "epoch")); got != 2 {
		t.Errorf("%d epoch spans, want 2", got)
	}
	for _, r := range spansNamed(recs, "epoch") {
		if !r.Sim {
			t.Errorf("epoch span not on the simulated clock: %+v", r)
		}
	}
	// An unknown job 404s; a rehydrated job (no tracer) also 404s — that
	// path is covered by the restart tests' persistence setup.
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/nope/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: %d, want 404", resp.StatusCode)
	}
}

// TestTraceparentContinuesTrace: a submission carrying a W3C traceparent
// header must continue that trace rather than opening a fresh one — the
// mechanism the coordinator uses to merge worker traces.
func TestTraceparentContinuesTrace(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	const wantTrace = "0123456789abcdef0123456789abcdef"
	id := submitTraced(t, ts, tinyJob, "00-"+wantTrace+"-00000000000000aa-01")
	if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/trace?format=spans")
	var v struct {
		TraceID string           `json:"trace_id"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.TraceID != wantTrace {
		t.Fatalf("trace_id %q, want the propagated %q", v.TraceID, wantTrace)
	}
	if len(v.Spans) == 0 {
		t.Fatal("spans form is empty")
	}
	// A malformed header falls back to a fresh trace instead of failing
	// the submission.
	submitTraced(t, ts, tinyJob, "garbage")
}

// distributedTopology boots a fresh 2-worker fleet plus coordinator, runs
// the cache-sweep spec, and returns the merged trace's canonical topology.
func distributedTopology(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := newWorker(t, Config{Workers: 2}, nil)
	_, w2 := newWorker(t, Config{Workers: 2}, nil)
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, nil)
	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}
	j := coord.store.get(id)
	<-j.done
	if n := j.tracer.OpenSpans(); n != 0 {
		t.Fatalf("%d spans still open after finalize", n)
	}
	recs := fetchTraceRecords(t, ts, id)
	checkGraftNests(t, recs)
	return obs.TopologyFromRecords(recs)
}

// checkGraftNests requires each worker job span grafted under an attempt,
// and the run span under it, to lie within its parent's wall-clock
// interval: a batch's cells finish at different times, so each cell's
// copies of the batch's enclosing spans must be cut to that cell's own
// part. Coordinator and workers share one process clock here.
func checkGraftNests(t *testing.T, recs []obs.SpanRecord) {
	t.Helper()
	byID := make(map[int64]obs.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	grafts := 0
	for _, r := range recs {
		p, ok := byID[r.Parent]
		if !ok || !(r.Name == "job" && p.Name == "attempt" || r.Name == "run" && p.Name == "job" && byID[p.Parent].Name == "attempt") {
			continue
		}
		grafts++
		if r.StartUS < p.StartUS || r.StartUS+r.DurUS > p.StartUS+p.DurUS {
			t.Errorf("%s span [%d, +%d] outside its %s span [%d, +%d]",
				r.Name, r.StartUS, r.DurUS, p.Name, p.StartUS, p.DurUS)
		}
	}
	if grafts == 0 {
		t.Error("no worker spans grafted under an attempt")
	}
}

// TestTraceTopologyGolden is the tracecheck determinism guarantee: the
// merged trace of a distributed sweep, with timestamps and volatile
// attributes stripped, is byte-identical across reruns and matches the
// committed golden. Regenerate with STALLTRACE_UPDATE=1 after deliberate
// instrumentation changes.
func TestTraceTopologyGolden(t *testing.T) {
	first := distributedTopology(t)
	second := distributedTopology(t)
	if string(first) != string(second) {
		t.Fatalf("trace topology differs across reruns:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	const golden = "testdata/trace-topology.golden"
	if os.Getenv("STALLTRACE_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with STALLTRACE_UPDATE=1 to create the golden)", err)
	}
	if string(first) != string(want) {
		t.Fatalf("trace topology drifted from %s (STALLTRACE_UPDATE=1 regenerates after deliberate changes):\n--- got ---\n%s\n--- want ---\n%s", golden, first, want)
	}
	// The distributed hop actually merged: worker subtrees hang under the
	// coordinator's attempt spans.
	if !strings.Contains(string(first), "attempt") {
		t.Fatal("no attempt spans in the merged topology")
	}
}

// TestTraceSurvivesWorkerDeath kills one worker mid-sweep and requires the
// merged trace to stay coherent: every span closed, the re-routed case
// carrying one attempt span per dispatch under a single case span, and the
// surviving worker's subtree grafted in.
func TestTraceSurvivesWorkerDeath(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	// The first worker to receive a case is the victim. It holds every case
	// it receives until it is closed, so none finishes there and a retry
	// is certain.
	var victimIdx atomic.Int32 // 1 + the victim's index; 0 until chosen
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	holdFor := func(k int32) func(http.Handler) http.Handler {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" &&
					(victimIdx.CompareAndSwap(0, k+1) || victimIdx.Load() == k+1) {
					<-release
				}
				next.ServeHTTP(w, r)
			})
		}
	}
	_, w1 := newWorker(t, Config{Workers: 1}, holdFor(0))
	_, w2 := newWorker(t, Config{Workers: 1}, holdFor(1))
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, nil)

	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	deadline := time.After(60 * time.Second)
	for victimIdx.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no worker ever received a case")
		case <-time.After(time.Millisecond):
		}
	}
	victim := []*httptest.Server{w1, w2}[victimIdx.Load()-1]
	victim.CloseClientConnections()
	close(release)
	victim.Close()

	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}
	j := coord.store.get(id)
	<-j.done
	if n := j.tracer.OpenSpans(); n != 0 {
		t.Fatalf("%d spans still open after a worker died mid-sweep", n)
	}
	recs := fetchTraceRecords(t, ts, id)

	// Attempts per case span: the re-routed case shows one attempt per
	// dispatch, all under its single case span.
	attemptsByCase := map[int64]int{}
	for _, r := range spansNamed(recs, "attempt") {
		attemptsByCase[r.Parent]++
	}
	retried := 0
	for _, n := range attemptsByCase {
		if n >= 2 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatalf("no case span carries two attempt spans after a mid-sweep worker death (attempts per case: %v)", attemptsByCase)
	}
	// The surviving worker's trace was grafted: some attempt has a remote
	// job span (with its own queue_wait) beneath it.
	attemptIDs := map[int64]bool{}
	for _, r := range spansNamed(recs, "attempt") {
		attemptIDs[r.ID] = true
	}
	grafted := 0
	for _, r := range spansNamed(recs, "job") {
		if attemptIDs[r.Parent] {
			grafted++
		}
	}
	if grafted == 0 {
		t.Fatal("no worker job span grafted under any attempt span")
	}
}

// logCapture is a slog.Handler that records every message with its merged
// attributes, including logger-scoped With(...) attrs.
type logCapture struct {
	mu   sync.Mutex
	recs []capturedRec
}

type capturedRec struct {
	msg   string
	attrs map[string]any
}

func (c *logCapture) records() []capturedRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]capturedRec(nil), c.recs...)
}

type captureHandler struct {
	c     *logCapture
	attrs []slog.Attr
}

func (h captureHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h captureHandler) Handle(_ context.Context, r slog.Record) error {
	m := map[string]any{}
	for _, a := range h.attrs {
		m[a.Key] = a.Value.Any()
	}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value.Any()
		return true
	})
	h.c.mu.Lock()
	h.c.recs = append(h.c.recs, capturedRec{msg: r.Message, attrs: m})
	h.c.mu.Unlock()
	return nil
}

func (h captureHandler) WithAttrs(as []slog.Attr) slog.Handler {
	merged := append(append([]slog.Attr(nil), h.attrs...), as...)
	return captureHandler{c: h.c, attrs: merged}
}

func (h captureHandler) WithGroup(string) slog.Handler { return h }

// TestRetryLogsCarryFields: every coordinator retry and worker-unhealthy
// log line must carry worker, case_key and attempt fields, so fleet
// incidents are attributable without regex archaeology.
func TestRetryLogsCarryFields(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var fails atomic.Int64
	fails.Store(2)
	flaky := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && fails.Add(-1) >= 0 {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	_, w1 := newWorker(t, Config{Workers: 2}, flaky)
	_, w2 := newWorker(t, Config{Workers: 2}, flaky)
	capture := &logCapture{}
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, func(c *Config) {
		c.RetryBackoff = 150 * time.Millisecond
		c.Log = slog.New(captureHandler{c: capture})
	})

	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}

	var retries, unhealthy int
	for _, rec := range capture.records() {
		switch rec.msg {
		case "case attempt failed":
			retries++
		case "coordinator: worker unhealthy":
			unhealthy++
		default:
			continue
		}
		for _, field := range []string{"worker", "case_key", "attempt"} {
			if _, ok := rec.attrs[field]; !ok {
				t.Errorf("%q log line missing %q field: %v", rec.msg, field, rec.attrs)
			}
		}
	}
	if retries == 0 {
		t.Error("no 'case attempt failed' lines captured despite injected 500s")
	}
	if unhealthy == 0 {
		t.Error("no 'coordinator: worker unhealthy' lines captured despite injected 500s")
	}
	// Job-scoped lines carry job_id and trace_id from the scoped logger.
	sawScoped := false
	for _, rec := range capture.records() {
		if rec.msg == "job finished" {
			sawScoped = true
			for _, field := range []string{"job_id", "trace_id", "status"} {
				if _, ok := rec.attrs[field]; !ok {
					t.Errorf("'job finished' missing %q field: %v", field, rec.attrs)
				}
			}
		}
	}
	if !sawScoped {
		t.Error("no 'job finished' line captured")
	}
}

// TestTraceDirDumpsOnFinalize: with Config.TraceDir set, each finished job
// leaves a parseable Chrome trace file named after it.
func TestTraceDirDumpsOnFinalize(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, TraceDir: dir})
	id := submitID(t, ts, tinyJob)
	if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	<-srv.store.get(id).done
	data, err := os.ReadFile(dir + "/" + id + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseChrome(data)
	if err != nil {
		t.Fatalf("dumped trace invalid: %v", err)
	}
	if len(spansNamed(recs, "job")) != 1 {
		t.Fatalf("dumped trace has %d job roots, want 1", len(spansNamed(recs, "job")))
	}
}
