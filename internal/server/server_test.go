package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/trainer"
)

// newTestServer starts a Server with the given config behind an httptest
// listener and tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func getJSON(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func doMethod(t *testing.T, method, url string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// submitID submits body and returns the accepted job ID.
func submitID(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, got := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, got)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(got), &v); err != nil || v.ID == "" {
		t.Fatalf("submit response %q: %v", got, err)
	}
	return v.ID
}

// waitTerminal blocks until the job leaves the queued/running states.
func waitTerminal(t *testing.T, srv *Server, id string, timeout time.Duration) Status {
	t.Helper()
	j := srv.store.get(id)
	if j == nil {
		t.Fatalf("job %s not in store", id)
	}
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s still %s after %s", id, j.StatusNow(), timeout)
	}
	return j.StatusNow()
}

// tinyJob completes in well under a second.
const tinyJob = `{"job": {"model": "resnet18", "scale": 0.005, "epochs": 2}}`

// blockingRunner returns a runJob seam that parks every job until release
// is closed (or its context dies), then reports success.
func blockingRunner(release <-chan struct{}) func(context.Context, *Job) (*experiments.Report, []*trainer.Result, error) {
	return func(ctx context.Context, j *Job) (*experiments.Report, []*trainer.Result, error) {
		select {
		case <-release:
			return nil, []*trainer.Result{{TotalTime: 1}}, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

func TestSubmitRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
		code       int
		contains   string
	}{
		{"syntax", `{not json`, 400, "not a submit request"},
		{"unknown field", `{"jbo": {}}`, 400, "unknown field"},
		{"empty selector", `{}`, 400, "exactly one of"},
		{"two selectors", `{"spec_name": "fig5", "job": {"model": "resnet18", "scale": 0.01}}`, 400, "exactly one of"},
		{"unknown model", `{"job": {"model": "nope", "scale": 0.01}}`, 400, "unknown model"},
		{"missing scale", `{"job": {"model": "resnet18"}}`, 400, "no dataset scale"},
		{"typed field error", `{"job": {"model": "resnet18", "scale": 0.01, "gpus": -1}}`, 400, "GPUsPerServer"},
		{"bad spec shape", `{"spec": {"name": "x", "base": {}, "rows": {"cases": [{"set": {}}]}, "columns": []}}`, 400, "at least one column"},
		{"trailing data", `{"spec_name": "fig5"}{"spec_name": "fig18"}`, 400, "trailing data"},
		{"empty jobs", `{"jobs": []}`, 400, `\"jobs\" holds 0 entries`},
		{"job and jobs", `{"job": {"model": "resnet18", "scale": 0.01}, "jobs": [{"model": "resnet18", "scale": 0.01}]}`, 400, "exactly one of"},
		{"too many jobs", `{"jobs": [` + strings.Repeat(`{"model": "resnet18", "scale": 0.01},`, maxBatchJobs) + `{"model": "resnet18", "scale": 0.01}]}`, 400, fmt.Sprintf("holds %d entries", maxBatchJobs+1)},
		{"bad batch entry", `{"jobs": [{"model": "resnet18", "scale": 0.01}, {"model": "resnet18", "scale": 0.01, "gpus": -1}]}`, 400, `"field": "jobs[1].GPUsPerServer"`},
		{"unknown batch model", `{"jobs": [{"model": "nope", "scale": 0.01}]}`, 400, `"field": "jobs[0]"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.code, body)
			}
			if !strings.Contains(body, tc.contains) {
				t.Fatalf("body %q does not mention %q", body, tc.contains)
			}
		})
	}
}

// FuzzDecodeSubmit throws arbitrary bodies at submission parsing. It never
// panics, and a batch it accepts — decoded, and every entry resolved as
// the handler resolves it — holds 1 to maxBatchJobs entries, each of which
// builds and validates.
func FuzzDecodeSubmit(f *testing.F) {
	for _, seed := range []string{
		tinyJob,
		`{"jobs": [{"model": "resnet18", "scale": 0.01}, {"model": "resnet18", "scale": 0.01, "seed": 2}], "epochs": 2}`,
		`{"jobs": [{"model": "resnet18"}], "scale": 0.01}`,
		`{"jobs": []}`,
		`{"jobs": null}`,
		`{"job": {"model": "resnet18", "scale": 0.01}, "jobs": [{"model": "resnet18", "scale": 0.01}]}`,
		`{"jobs": [{"model": "resnet18", "scale": 0.01, "gpus": -1}]}`,
		`{"jobs": [{"model": "nope", "scale": 0.01}]}`,
		`{"spec_name": "fig5"}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(body)
		if err != nil || req.Jobs == nil {
			return
		}
		if n := len(req.Jobs); n < 1 || n > maxBatchJobs {
			t.Fatalf("accepted a batch of %d jobs, want 1 to %d", n, maxBatchJobs)
		}
		opts := experiments.Options{Scale: req.Scale, Epochs: req.Epochs, Seed: req.Seed}
		if _, err := buildJobs(req.Jobs, opts, true); err != nil {
			return // a 400 at submit
		}
		for k, js := range req.Jobs {
			cfg, err := js.Build(opts)
			if err == nil {
				err = cfg.Validate()
			}
			if err != nil {
				t.Fatalf("accepted jobs[%d] does not build and validate: %v", k, err)
			}
		}
	})
}

// TestSubmitRejectsBackendField: the job schema has no "backend" field
// (there is one simulator), so every place a JobSpec can appear — a bare
// job, a spec base, a grid-axis patch, wrapped or bare — refuses a
// submission that sets it, with a 400 naming the field.
func TestSubmitRejectsBackendField(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const cols = `"row_header": ["model"], "columns": [{"label": "s", "metric": "epoch_s"}]`
	for _, backend := range []string{"concurrent", "analytic"} {
		set := fmt.Sprintf(`"backend": %q`, backend)
		specBase := `{"name": "b", "base": {"model": "resnet18", "scale": 0.01, ` + set + `},
			"rows": {"cases": [{"label": "r", "set": {}}]}, ` + cols + `}`
		specAxis := `{"name": "b", "base": {"model": "resnet18", "scale": 0.01},
			"rows": {"param": "backend", "values": [` + fmt.Sprintf("%q", backend) + `]}, ` + cols + `}`
		specCase := `{"name": "b", "base": {"model": "resnet18", "scale": 0.01},
			"rows": {"cases": [{"label": "r", "set": {` + set + `}}]}, ` + cols + `}`
		for name, body := range map[string]string{
			"job":            `{"job": {"model": "resnet18", "scale": 0.01, ` + set + `}}`,
			"spec base":      `{"spec": ` + specBase + `}`,
			"bare spec base": specBase,
			"spec axis":      `{"spec": ` + specAxis + `}`,
			"bare spec axis": specAxis,
			"spec case":      `{"spec": ` + specCase + `}`,
		} {
			resp, out := postJSON(t, ts.URL+"/v1/jobs", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s/%s: status %d, want 400 (body %s)", backend, name, resp.StatusCode, out)
			}
			if !strings.Contains(out, "backend") {
				t.Fatalf("%s/%s: 400 body %q does not name the backend field", backend, name, out)
			}
		}
	}
}

// TestSubmitTypedFieldError pins the full trainer.FieldError surface: the
// 400 body carries the field name and the sentinel's message, exactly as
// errors.Is callers see them in-process.
func TestSubmitTypedFieldError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"job": {"model": "resnet18", "scale": 0.01, "gpus": -1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !json.Valid([]byte(body)) {
		t.Fatalf("400 body is not JSON: %q", body)
	}
	// The body must carry the same text the in-process *FieldError renders:
	// the offending field name plus its sentinel's message.
	for _, frag := range []string{"GPUsPerServer", "GPU count outside the server's range"} {
		if !strings.Contains(body, frag) {
			t.Fatalf("400 body %q missing FieldError fragment %q", body, frag)
		}
	}
}

// TestSubmitRejectsScaleOutOfRange: a single job whose scale lies outside
// (0, 1] gets a 400 naming scale, not a crashed handler.
func TestSubmitRejectsScaleOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, scale := range []string{"1.5", "-0.01"} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"job": {"model": "resnet18", "scale": `+scale+`}}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "scale") {
			t.Fatalf("scale %s: status %d body %q, want a 400 naming scale", scale, resp.StatusCode, body)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/job-999999"},
		{"DELETE", "/v1/jobs/job-999999"},
		{"GET", "/v1/jobs/job-999999/events"},
		{"GET", "/v1/specs/not-a-spec"},
	} {
		resp, body := doMethod(t, probe.method, ts.URL+probe.path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404 (body %s)", probe.method, probe.path, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"spec_name": "not-a-spec"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown spec_name: status %d (body %s)", resp.StatusCode, body)
	}
}

func TestSpecsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := getJSON(t, ts.URL+"/v1/specs")
	if resp.StatusCode != 200 {
		t.Fatalf("specs: %d", resp.StatusCode)
	}
	var list struct {
		Specs []struct {
			Name string `json:"name"`
		} `json:"specs"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range list.Specs {
		names[sp.Name] = true
	}
	for _, want := range []string{"fig5", "fig9a", "fig18"} {
		if !names[want] {
			t.Fatalf("built-in spec %q missing from /v1/specs (%v)", want, names)
		}
	}
	resp, body = getJSON(t, ts.URL+"/v1/specs/fig5")
	if resp.StatusCode != 200 || !strings.Contains(body, `"fig5"`) {
		t.Fatalf("spec detail: %d %s", resp.StatusCode, body)
	}
	// The detail document must round-trip through LoadSpec: what the API
	// serves is directly re-submittable.
	if _, err := experiments.LoadSpec([]byte(body)); err != nil {
		t.Fatalf("served spec does not reload: %v", err)
	}
}

func TestQueueFullRejects503(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, runJob: blockingRunner(release),
	})
	id1 := submitID(t, ts, tinyJob) // occupies the worker
	waitStatus(t, srv, id1, StatusRunning, 5*time.Second)
	submitID(t, ts, tinyJob) // fills the 1-slot queue
	resp, body := postJSON(t, ts.URL+"/v1/jobs", tinyJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "queue full") {
		t.Fatalf("503 body %q does not say queue full", body)
	}
	// The rejected job must not linger in the store.
	if n := len(srv.store.list()); n != 2 {
		t.Fatalf("store holds %d jobs after rejection, want 2", n)
	}
}

// waitStatus polls until the job reaches the wanted (non-terminal) status.
func waitStatus(t *testing.T, srv *Server, id string, want Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if srv.store.get(id).StatusNow() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", id, want, srv.store.get(id).StatusNow())
}

// TestCancelRaces drives the DELETE state machine through every arm:
// cancel-while-running wins over late completion, cancel-while-queued
// finalizes immediately, and cancel-after-terminal is a 409.
func TestCancelRaces(t *testing.T) {
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, runJob: blockingRunner(release),
	})

	running := submitID(t, ts, tinyJob)
	waitStatus(t, srv, running, StatusRunning, 5*time.Second)
	queued := submitID(t, ts, tinyJob)

	// Cancel the queued job: terminal immediately, no worker involved.
	resp, body := doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+queued)
	if resp.StatusCode != 200 || !strings.Contains(body, string(StatusCancelled)) {
		t.Fatalf("cancel queued: %d %s", resp.StatusCode, body)
	}
	if st := waitTerminal(t, srv, queued, time.Second); st != StatusCancelled {
		t.Fatalf("queued job ended %s, want cancelled", st)
	}

	// Cancel the running job, then let the (blocked) run return a
	// success: the DELETE verdict must win the race.
	resp, body = doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+running)
	if resp.StatusCode != 200 || !strings.Contains(body, string(StatusCancelled)) {
		t.Fatalf("cancel running: %d %s", resp.StatusCode, body)
	}
	close(release)
	if st := waitTerminal(t, srv, running, 5*time.Second); st != StatusCancelled {
		t.Fatalf("running job ended %s, want cancelled", st)
	}
	_, got := getJSON(t, ts.URL+"/v1/jobs/"+running)
	var v jobJSON
	if err := json.Unmarshal([]byte(got), &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCancelled || v.Result != nil {
		t.Fatalf("cancelled job record: status %s result %v; the run's late success must be discarded", v.Status, v.Result)
	}

	// A completed job cannot be cancelled.
	done := submitID(t, ts, tinyJob)
	if st := waitTerminal(t, srv, done, 5*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s, want completed", st)
	}
	resp, body = doMethod(t, "DELETE", ts.URL+"/v1/jobs/"+done)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(body, "already completed") {
		t.Fatalf("cancel completed: %d %s, want 409 already completed", resp.StatusCode, body)
	}
}

// TestPersistRoundTrip: a fresh server over the same WAL serves a finished
// job's record and issues new IDs past the recovered ones.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: dir})
	id := submitID(t, ts, tinyJob)
	if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	_, before := getJSON(t, ts.URL+"/v1/jobs/"+id)
	ts.Close()
	srv.Close()

	// A fresh server over the same directory serves the same record.
	srv2, ts2 := newTestServer(t, Config{Workers: 1, WALDir: dir})
	_, after := getJSON(t, ts2.URL+"/v1/jobs/"+id)
	var b, a jobJSON
	if err := json.Unmarshal([]byte(before), &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(after), &a); err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusCompleted || a.Result == nil {
		t.Fatalf("reloaded job: %+v", a)
	}
	if fmt.Sprint(a.Result.EpochTime) != fmt.Sprint(b.Result.EpochTime) {
		t.Fatalf("reloaded EpochTime %v != original %v", a.Result.EpochTime, b.Result.EpochTime)
	}
	// New submissions on the reloaded server must not collide with the
	// persisted ID space.
	id2 := submitID(t, ts2, tinyJob)
	if id2 == id {
		t.Fatalf("reloaded server reissued id %s", id)
	}
	if st := waitTerminal(t, srv2, id2, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job on reloaded server ended %s", st)
	}
}

// TestStoreEvictsTerminalRecords: the in-memory store is bounded — oldest
// finished records are evicted past MaxRecords, counters keep counting.
func TestStoreEvictsTerminalRecords(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxRecords: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id := submitID(t, ts, tinyJob)
		if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
			t.Fatalf("job %s ended %s", id, st)
		}
		ids = append(ids, id)
	}
	// finalize evicts just after it closes Done, so the last job's eviction
	// can trail waitTerminal; no event marks it, so poll briefly.
	for deadline := time.Now().Add(5 * time.Second); srv.store.count() > 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := srv.store.count(); n != 2 {
		t.Fatalf("store holds %d records, want 2", n)
	}
	for _, gone := range ids[:2] {
		if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+gone); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted job %s still served (%d)", gone, resp.StatusCode)
		}
	}
	for _, kept := range ids[2:] {
		if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+kept); resp.StatusCode != 200 {
			t.Fatalf("recent job %s not served (%d)", kept, resp.StatusCode)
		}
	}
	_, text := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(text, "stallserved_jobs_submitted_total 4") ||
		!strings.Contains(text, "stallserved_jobs_completed_total 4") {
		t.Fatalf("counters must survive eviction:\n%s", text)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestDrainRejectsSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !srv.Drain(ctx) {
		t.Fatal("idle drain reported forced cancellation")
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", tinyJob)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("submit while draining: %d %s", resp.StatusCode, body)
	}
}
