package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/race"
	"datastall/internal/trainer"
)

// envelope mirrors the typed error body every handler must emit.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Field   string `json:"field"`
	} `json:"error"`
}

func decodeEnvelope(t *testing.T, body string) envelope {
	t.Helper()
	var e envelope
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body %q is not an envelope: %v", body, err)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope %q missing code or message", body)
	}
	return e
}

// tinySpec sweeps one row across two loaders: the cheapest spec submission
// that captures more than one queryable case.
const tinySpec = `{"spec": {
	"name": "qspec",
	"row_header": ["cache"],
	"base": {"model": "resnet18", "dataset": "imagenet-1k", "scale": 0.005, "epochs": 2, "seed": 1},
	"rows": {"param": "cache_fraction", "values": [0.5]},
	"sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
	"columns": [{"label": "dali s", "metric": "epoch_s", "of": "dali-shuffle"}]
}}`

// TestQueryEndpoint drives GET/POST /v1/query over real finished jobs: a
// single-job submission and a spec sweep, so the store holds both kinds.
func TestQueryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	jobID := submitID(t, ts, tinyJob)
	specID := submitID(t, ts, tinySpec)
	for _, id := range []string{jobID, specID} {
		if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
			t.Fatalf("job %s ended %s", id, st)
		}
	}

	// GET with ?q=: one row per (spec, loader) group, keys sorted.
	q := `{"group_by":["spec"],"aggs":[{"op":"count"}],"order_by":[{"col":"spec"}]}`
	resp, body := getJSON(t, ts.URL+"/v1/query?q="+url.QueryEscape(q))
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	want := `{"spec":"` + jobID + `","count":1}` + "\n" + `{"spec":"qspec","count":2}` + "\n"
	if body != want {
		t.Fatalf("query result:\n got %q\nwant %q", body, want)
	}

	// POST form, projecting identity columns: the single job carries its
	// resolved defaults, the spec cases their sweep values.
	resp, body = postJSON(t, ts.URL+"/v1/query",
		`{"select":["case_id","spec","row","loader"],"order_by":[{"col":"case_id"}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 case rows, got %d: %s", len(lines), body)
	}
	if !strings.Contains(lines[0], `"spec":"`+jobID+`"`) {
		t.Fatalf("row 0 should be the standalone job: %s", lines[0])
	}
	for i, frag := range []string{"", `"loader":"dali-shuffle"`, `"loader":"coordl"`} {
		if frag != "" && !strings.Contains(lines[i], frag) {
			t.Fatalf("row %d missing %s: %s", i, frag, lines[i])
		}
	}

	// The default GET (no q) scans every case.
	resp, body = getJSON(t, ts.URL+"/v1/query")
	if resp.StatusCode != 200 || len(strings.Split(strings.TrimRight(body, "\n"), "\n")) != 3 {
		t.Fatalf("default scan: %d %s", resp.StatusCode, body)
	}

	// Metrics counted the queries and their rows.
	_, text := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(text, "stallserved_queries_total 3") {
		t.Fatalf("queries_total missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "stallserved_query_rows_total 8") {
		t.Fatalf("query_rows_total should be 2+3+3=8:\n%s", text)
	}
}

// TestQueryEmptyStore: a scalar aggregate over no finished jobs still emits
// its one SQL-shaped row; a plain scan emits nothing.
func TestQueryEmptyStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/query", `{"aggs":[{"op":"count"}]}`)
	if resp.StatusCode != 200 || body != `{"count":0}`+"\n" {
		t.Fatalf("scalar agg over empty store: %d %q", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/query", `{}`)
	if resp.StatusCode != 200 || body != "" {
		t.Fatalf("scan over empty store: %d %q", resp.StatusCode, body)
	}
}

// TestQueryWhileJobsFinish: queries read finished jobs' captures by
// reference while other jobs finish and append terminal records, which
// read the same captures, and the WAL compacts behind them; run it under
// -race. Every response is whole, and the last one sees every job.
func TestQueryWhileJobsFinish(t *testing.T) {
	done := func(context.Context, *Job) (*experiments.Report, []*trainer.Result, error) {
		return nil, []*trainer.Result{{TotalTime: 1, Epochs: []trainer.EpochStats{{Duration: 1}, {Duration: 2}}}}, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 2, WALDir: t.TempDir(), WALCompactEvery: 8, runJob: done})
	const jobs = 40
	join := `{"from":"epochs","join":true}`
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, q := range []string{`{}`, join} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(q))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || strings.Contains(string(b), `"error"`) {
					t.Errorf("query %s: %d %v %s", q, resp.StatusCode, err, b)
					return
				}
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		if st := waitTerminal(t, srv, submitID(t, ts, tinyJob), 10*time.Second); st != StatusCompleted {
			t.Fatalf("job ended %s", st)
		}
	}
	close(stop)
	wg.Wait()
	if _, body := postJSON(t, ts.URL+"/v1/query", join); strings.Count(body, "\n") != 2*jobs {
		t.Fatalf("join over %d two-epoch jobs returned %d rows", jobs, strings.Count(body, "\n"))
	}
}

// TestErrorEnvelope is the cross-handler table test: every failure path
// emits the typed {"error": {code, message, field}} envelope with the
// right code, and typed validation failures carry the offending field.
func TestErrorEnvelope(t *testing.T) {
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, runJob: blockingRunner(release)})

	// A completed job for the conflict case.
	done := submitID(t, ts, tinyJob)
	close(release)
	if st := waitTerminal(t, srv, done, 10*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}

	cases := []struct {
		name, method, path, body string
		status                   int
		code, field              string
	}{
		{"submit bad json", "POST", "/v1/jobs", `{not json`, 400, "bad_request", ""},
		{"submit typed field error", "POST", "/v1/jobs",
			`{"job": {"model": "resnet18", "scale": 0.01, "gpus": -1}}`, 400, "bad_request", "GPUsPerServer"},
		{"submit oversized body", "POST", "/v1/jobs",
			`{"spec_name": "` + strings.Repeat("x", 1<<20) + `"}`, 413, "too_large", ""},
		{"submit unknown spec", "POST", "/v1/jobs", `{"spec_name": "nope"}`, 404, "not_found", ""},
		{"job not found", "GET", "/v1/jobs/job-999999", "", 404, "not_found", ""},
		{"cancel not found", "DELETE", "/v1/jobs/job-999999", "", 404, "not_found", ""},
		{"events not found", "GET", "/v1/jobs/job-999999/events", "", 404, "not_found", ""},
		{"spec not found", "GET", "/v1/specs/nope", "", 404, "not_found", ""},
		{"cancel terminal", "DELETE", "/v1/jobs/" + done, "", 409, "conflict", ""},
		{"query bad table", "POST", "/v1/query", `{"from": "bogus"}`, 400, "bad_request", "from"},
		{"query bad clause", "POST", "/v1/query",
			`{"where": [{"col": "nope", "op": "eq", "value": 1}]}`, 400, "bad_request", "where[0].col"},
		{"query bad json", "POST", "/v1/query", `{"from": `, 400, "bad_request", ""},
		{"query via GET", "GET", "/v1/query?q=" + url.QueryEscape(`{"limit": -1}`), "", 400, "bad_request", "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body string
			if tc.method == "POST" {
				resp, body = postJSON(t, ts.URL+tc.path, tc.body)
			} else {
				resp, body = doMethod(t, tc.method, ts.URL+tc.path)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			e := decodeEnvelope(t, body)
			if e.Error.Code != tc.code {
				t.Fatalf("code %q, want %q (body %s)", e.Error.Code, tc.code, body)
			}
			if e.Error.Field != tc.field {
				t.Fatalf("field %q, want %q (body %s)", e.Error.Field, tc.field, body)
			}
		})
	}

	// The scheduler rejections carry their own codes. Draining first (it
	// needs no queue gymnastics): after Drain every submit is "draining".
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", tinyJob)
	if resp.StatusCode != 503 {
		t.Fatalf("draining submit: %d %s", resp.StatusCode, body)
	}
	if e := decodeEnvelope(t, body); e.Error.Code != "draining" {
		t.Fatalf("draining code %q (body %s)", e.Error.Code, body)
	}
}

// TestQueueFullEnvelope pins the queue_full code (TestQueueFullRejects503
// checks the behaviour; this checks the envelope).
func TestQueueFullEnvelope(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, runJob: blockingRunner(release)})
	id1 := submitID(t, ts, tinyJob)
	waitStatus(t, srv, id1, StatusRunning, 5*time.Second)
	submitID(t, ts, tinyJob)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", tinyJob)
	if resp.StatusCode != 503 {
		t.Fatalf("status %d (body %s)", resp.StatusCode, body)
	}
	if e := decodeEnvelope(t, body); e.Error.Code != "queue_full" {
		t.Fatalf("code %q (body %s)", e.Error.Code, body)
	}
}

// TestAllocsQueryStore: gathering the query store reads each completed
// job's capture by reference — a single job's case is taken once, when it
// finishes — so the objects a gather allocates do not grow with the number
// of jobs.
func TestAllocsQueryStore(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	done := func(context.Context, *Job) (*experiments.Report, []*trainer.Result, error) {
		return nil, []*trainer.Result{{TotalTime: 1, Epochs: []trainer.EpochStats{{Duration: 1}}}}, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 1, runJob: done})
	var allocs []float64
	for _, n := range []int{64, 256} {
		for srv.store.count() < n {
			if st := waitTerminal(t, srv, submitID(t, ts, tinyJob), 10*time.Second); st != StatusCompleted {
				t.Fatalf("job ended %s", st)
			}
		}
		if got := srv.queryStore().Len(); got != n {
			t.Fatalf("store holds %d cases over %d jobs", got, n)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { srv.queryStore() }))
	}
	if allocs[0] != allocs[1] || allocs[1] > 3 {
		t.Fatalf("queryStore allocates %v objects over 64 jobs and %v over 256, want the same, at most 3", allocs[0], allocs[1])
	}
}
