package server

// The kill -9 fault-injection battery. One uninterrupted golden run
// produces the WAL record stream and the golden outputs; wal.CopyPrefix
// then synthesizes the exact on-disk state of a crash after every single
// append (plus torn-tail variants), and a fresh server boots on each one.
// The properties checked at every crash point:
//
//   - recovery succeeds (New returns no error, jobs reach terminal);
//   - every job recovered or resumed finishes with a report/result
//     byte-identical to the uninterrupted run (resumed cells are served
//     from the log, fresh cells re-simulated — the simulation is
//     deterministic, and trainer.Result round-trips JSON exactly);
//   - /v1/query history bytes match the no-crash golden run;
//   - the PRAM trace checker (wal.Trace) finds no stale-after-fresh read:
//     state a client observed as durable before the crash is never served
//     at an older version after recovery.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// crashQuery lists every case row with all columns in case_id order — the
// strongest deterministic byte-compare the query surface offers.
const crashQuery = `{"order_by":[{"col":"case_id"}]}`

// goldenArtifacts is everything the battery compares against.
type goldenArtifacts struct {
	walDir  string
	records []wal.Record
	specID  string
	jobID   string
	// report and result are the raw JSON payloads of the spec job's
	// report and the single job's result; query is the /v1/query body.
	report string
	result string
	query  string
}

// outputJSON extracts one field's raw JSON from GET /v1/jobs/{id}.
func outputJSON(t *testing.T, tsURL, id, field string) string {
	t.Helper()
	resp, body := getJSON(t, tsURL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", id, resp.StatusCode, body)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("job %s body: %v", id, err)
	}
	if len(m[field]) == 0 {
		t.Fatalf("job %s has no %q field: %s", id, field, body)
	}
	return string(m[field])
}

func queryBody(t *testing.T, tsURL string) string {
	t.Helper()
	resp, body := getJSON(t, tsURL+"/v1/query?q="+url.QueryEscape(crashQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	return body
}

// runGolden executes the workload — a two-cell spec sweep plus a single
// job — uninterrupted on a WAL-enabled single worker and captures the
// golden artifacts. The job is submitted only after the spec completes:
// that makes the global record order deterministic (all spec records
// strictly precede all job records), so prefix-based expectations — like
// "a prefix ending at the spec's first case_done holds exactly one
// interrupted job" — hold on every machine, not just ones where the
// second submission happens to lose the race against the first case.
func runGolden(t *testing.T) goldenArtifacts {
	t.Helper()
	g := goldenArtifacts{walDir: filepath.Join(t.TempDir(), "wal")}
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: g.walDir})
	g.specID = submitID(t, ts, tinySpec)
	if st := waitTerminal(t, srv, g.specID, 60*time.Second); st != StatusCompleted {
		t.Fatalf("golden job %s ended %s", g.specID, st)
	}
	g.jobID = submitID(t, ts, tinyJob)
	if st := waitTerminal(t, srv, g.jobID, 60*time.Second); st != StatusCompleted {
		t.Fatalf("golden job %s ended %s", g.jobID, st)
	}
	g.report = outputJSON(t, ts.URL, g.specID, "report")
	g.result = outputJSON(t, ts.URL, g.jobID, "result")
	g.query = queryBody(t, ts.URL)

	rec, err := wal.ReadAll(g.walDir)
	if err != nil {
		t.Fatalf("golden wal: %v", err)
	}
	if rec.LoadErrors != 0 {
		t.Fatalf("golden wal has %d load errors", rec.LoadErrors)
	}
	g.records = rec.Records
	if len(g.records) < 8 {
		t.Fatalf("golden wal has only %d records: %+v", len(g.records), g.records)
	}
	requireSubmittedFirst(t, g.records)
	return g
}

// requireSubmittedFirst fails unless every job's first record is its
// submitted record. A worker's started or case_done record landing ahead
// of it makes a clean crash prefix replay as lifecycle records with no
// submission: a spurious load error.
func requireSubmittedFirst(t *testing.T, records []wal.Record) {
	t.Helper()
	seen := map[string]bool{}
	for i, r := range records {
		if !seen[r.JobID] && r.Type != wal.TypeSubmitted {
			t.Fatalf("record %d (%s) is job %s's first, want %s", i, r.Type, r.JobID, wal.TypeSubmitted)
		}
		seen[r.JobID] = true
	}
}

// unitVersion is the durability version of one job within a record slice:
// 1 for its submitted record, +1 per case_done, +1 for terminal — the
// client-visible facts a crash must not roll back (started/cancel records
// carry no results and don't count).
func unitVersion(records []wal.Record, id string) int {
	v := 0
	for _, r := range records {
		if r.JobID != id {
			continue
		}
		switch r.Type {
		case wal.TypeSubmitted, wal.TypeCaseDone, wal.TypeTerminal:
			v++
		}
	}
	return v
}

// observedVersion measures the same unit version from a recovered server's
// state: job present (submitted) + recovered cells + terminal-at-boot.
func observedVersion(srv *Server, id string) int {
	j := srv.store.get(id)
	if j == nil {
		return 0
	}
	j.mu.Lock()
	terminal := j.status.Terminal()
	resumed := len(j.resume)
	j.mu.Unlock()
	if terminal {
		return 1 + len(j.caseResults()) + 1
	}
	return 1 + resumed
}

// TestCrashBatteryEveryAppend is the tentpole property test: for every N,
// a kill -9 immediately after the Nth WAL append recovers to byte-identical
// outputs, with torn-tail variants layered on top.
func TestCrashBatteryEveryAppend(t *testing.T) {
	g := runGolden(t)
	trace := &wal.Trace{}
	jobs := []string{g.specID, g.jobID}
	// The golden record stream is the write history.
	for i := range g.records {
		for _, id := range jobs {
			if g.records[i].JobID == id {
				trace.Write(id, unitVersion(g.records[:i+1], id))
			}
		}
	}

	torn, err := wal.Encode(wal.Record{Type: wal.TypeCaseDone, JobID: g.specID, Payload: []byte(`{"index":9}`)})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(g.records); n++ {
		for _, tail := range []struct {
			name  string
			bytes []byte
		}{
			{"clean", nil},
			{"torn", torn[:len(torn)-5]}, // a frame cut mid-payload, as a crash mid-write leaves
		} {
			t.Run(fmt.Sprintf("append-%02d-%s", n, tail.name), func(t *testing.T) {
				crashDir := filepath.Join(t.TempDir(), "wal")
				if err := wal.CopyPrefix(g.walDir, crashDir, n, tail.bytes); err != nil {
					t.Fatalf("CopyPrefix: %v", err)
				}
				prefix := g.records[:n]
				client := fmt.Sprintf("restart-%d-%s", n, tail.name)
				// What a client had durably observed before the crash.
				for _, id := range jobs {
					if v := unitVersion(prefix, id); v > 0 {
						trace.Read(client, id, v)
					}
				}

				srv, ts := newTestServer(t, Config{Workers: 1, WALDir: crashDir})
				// Stale-after-fresh guard: a job whose terminal record was
				// durable must come back terminal, never re-queued.
				for _, id := range jobs {
					hasTerminal := false
					for _, r := range prefix {
						if r.JobID == id && r.Type == wal.TypeTerminal {
							hasTerminal = true
						}
					}
					if hasTerminal && !srv.store.get(id).StatusNow().Terminal() {
						t.Fatalf("job %s had a durable terminal record but recovered %s", id, srv.store.get(id).StatusNow())
					}
					if v := observedVersion(srv, id); v > 0 {
						trace.Read(client, id, v)
					}
				}

				// Every job the prefix knows must finish with golden bytes.
				both := true
				for _, id := range jobs {
					if unitVersion(prefix, id) == 0 {
						both = false
						continue // submission never became durable: the job is simply gone
					}
					if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
						t.Fatalf("recovered job %s ended %s", id, st)
					}
				}
				if unitVersion(prefix, g.specID) > 0 {
					if got := outputJSON(t, ts.URL, g.specID, "report"); got != g.report {
						t.Fatalf("resumed report differs from golden:\n got %s\nwant %s", got, g.report)
					}
				}
				if unitVersion(prefix, g.jobID) > 0 {
					if got := outputJSON(t, ts.URL, g.jobID, "result"); got != g.result {
						t.Fatalf("resumed result differs from golden:\n got %s\nwant %s", got, g.result)
					}
				}
				if both {
					if got := queryBody(t, ts.URL); got != g.query {
						t.Fatalf("recovered /v1/query differs from golden:\n got %q\nwant %q", got, g.query)
					}
				}

				// Load-error accounting: clean prefixes recover silently,
				// torn tails are counted and surfaced on /healthz.
				loadErrs := srv.metrics.persistLoadErrors.Load()
				if tail.bytes == nil && loadErrs != 0 {
					t.Fatalf("clean prefix reported %d load errors", loadErrs)
				}
				if tail.bytes != nil && loadErrs == 0 {
					t.Fatal("torn tail not counted as a load error")
				}
				resp, body := getJSON(t, ts.URL+"/healthz")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("healthz: %d", resp.StatusCode)
				}
				var hz struct {
					Persist struct {
						LoadErrors int64 `json:"load_errors"`
						WAL        struct {
							Records     int `json:"records"`
							ResumedJobs int `json:"resumed_jobs"`
						} `json:"wal"`
					} `json:"persist"`
				}
				if err := json.Unmarshal([]byte(body), &hz); err != nil {
					t.Fatalf("healthz body: %v", err)
				}
				if hz.Persist.LoadErrors != loadErrs {
					t.Fatalf("healthz load_errors %d, metric %d", hz.Persist.LoadErrors, loadErrs)
				}
				if hz.Persist.WAL.Records != n {
					t.Fatalf("healthz wal.records %d, want %d", hz.Persist.WAL.Records, n)
				}
			})
		}
	}
	if err := trace.Check(); err != nil {
		t.Fatalf("trace checker: %v", err)
	}
	if trace.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
}

// TestCrashRecoveryResumesNotReruns: a prefix holding one of the spec's
// two case_done records must resume — serve that cell from the log (the
// resumed-cases counter moves) and still produce golden bytes.
func TestCrashRecoveryResumesNotReruns(t *testing.T) {
	g := runGolden(t)
	// Find the prefix ending right after the spec's first case_done.
	n := -1
	for i, r := range g.records {
		if r.JobID == g.specID && r.Type == wal.TypeCaseDone {
			n = i + 1
			break
		}
	}
	if n < 0 {
		t.Fatal("golden wal has no spec case_done record")
	}
	crashDir := filepath.Join(t.TempDir(), "wal")
	if err := wal.CopyPrefix(g.walDir, crashDir, n, nil); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: crashDir})
	if srv.metrics.walResumed.Load() != 1 {
		t.Fatalf("resumed jobs = %d, want 1", srv.metrics.walResumed.Load())
	}
	if st := waitTerminal(t, srv, g.specID, 60*time.Second); st != StatusCompleted {
		t.Fatalf("resumed spec ended %s", st)
	}
	if got := srv.metrics.walResumedCases.Load(); got != 1 {
		t.Fatalf("resumed cases = %d, want 1 (one cell from the log, one re-run)", got)
	}
	if got := outputJSON(t, ts.URL, g.specID, "report"); got != g.report {
		t.Fatalf("resumed report differs from golden:\n got %s\nwant %s", got, g.report)
	}
}

// TestCrashAfterCompactionReplaysCheckpoint: with compaction after every
// terminal, a restart replays history from the checkpoint and still serves
// golden query bytes.
func TestCrashAfterCompactionReplaysCheckpoint(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: walDir, WALCompactEvery: 1})
	specID := submitID(t, ts, tinySpec)
	jobID := submitID(t, ts, tinyJob)
	for _, id := range []string{specID, jobID} {
		if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
			t.Fatalf("job %s ended %s", id, st)
		}
	}
	// Compaction runs behind the job; the second server below opens this
	// live log, so the first server's compaction must be over.
	srv.waitCompaction()
	if srv.metrics.walCompactions.Load() == 0 {
		t.Fatal("no compaction ran")
	}
	golden := queryBody(t, ts.URL)
	report := outputJSON(t, ts.URL, specID, "report")

	srv2, ts2 := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	for _, id := range []string{specID, jobID} {
		if st := srv2.store.get(id).StatusNow(); !st.Terminal() {
			t.Fatalf("job %s not terminal after checkpoint replay (%s)", id, st)
		}
	}
	if got := queryBody(t, ts2.URL); got != golden {
		t.Fatalf("post-checkpoint query differs:\n got %q\nwant %q", got, golden)
	}
	if got := outputJSON(t, ts2.URL, specID, "report"); got != report {
		t.Fatalf("post-checkpoint report differs:\n got %s\nwant %s", got, report)
	}
	if errs := srv2.metrics.persistLoadErrors.Load(); errs != 0 {
		t.Fatalf("checkpoint replay reported %d load errors", errs)
	}
}

// replayOnly replays dir into a server with no workers, so recovered jobs
// stay exactly as replay and the startup eviction left them.
func replayOnly(t *testing.T, dir string, maxRecords int) *Server {
	t.Helper()
	l, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := &Server{store: newStore(), metrics: newMetrics(), log: slog.New(slog.DiscardHandler), wal: l}
	if _, errs := s.replayWAL(rec.Records); errs != 0 || rec.LoadErrors != 0 {
		t.Fatalf("replay of %s: %d load errors", dir, errs+rec.LoadErrors)
	}
	s.store.evictTerminal(maxRecords)
	s.buildMux()
	return s
}

// served returns the bytes s answers GET path with.
func served(s *Server, path string) string {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.String()
}

// TestCompactionInvisibleToReplay: a log holding finished, evicted,
// resumed-pending and cancel-requested jobs replays to the same job list
// and query bytes with and without compactions in between, while the
// checkpoint drops the evicted job and every finished job's history.
func TestCompactionInvisibleToReplay(t *testing.T) {
	const maxRecords = 3
	plain := filepath.Join(t.TempDir(), "wal")
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: plain})
	for _, body := range []string{tinyJob, tinySpec, tinyJob} {
		if id := submitID(t, ts, body); waitTerminal(t, srv, id, 60*time.Second) != StatusCompleted {
			t.Fatalf("job %s did not complete", id)
		}
	}
	ts.Close()
	srv.Close()
	// job-000004 was interrupted after one logged cell (twice logged, as
	// duplicates are); job-000005 was cancelled while running. Replay logs
	// job-000005's terminal record, so the checkpoint keeps only that.
	l, _, err := wal.Open(wal.Options{Dir: plain})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := json.Marshal(walSubmitted{
		Kind: KindJob, Name: "resnet18", SubmittedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Job: jobSpecFor(t, tinyJob),
	})
	started := []byte(`{"started_at":"2026-01-01T00:00:01Z"}`)
	cell := []byte(`{"index":0,"result":{"TotalTime":1}}`)
	for _, rec := range []wal.Record{
		{Type: wal.TypeSubmitted, JobID: "job-000004", Payload: sub},
		{Type: wal.TypeStarted, JobID: "job-000004", Payload: started},
		{Type: wal.TypeCaseDone, JobID: "job-000004", Payload: cell},
		{Type: wal.TypeCaseDone, JobID: "job-000004", Payload: cell},
		{Type: wal.TypeSubmitted, JobID: "job-000005", Payload: sub},
		{Type: wal.TypeStarted, JobID: "job-000005", Payload: started},
		{Type: wal.TypeCancelRequested, JobID: "job-000005", Payload: []byte(`{}`)},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	compacted := filepath.Join(t.TempDir(), "wal")
	if err := os.CopyFS(compacted, os.DirFS(plain)); err != nil {
		t.Fatal(err)
	}
	s := replayOnly(t, compacted, maxRecords)
	if s.store.get("job-000001") != nil {
		t.Fatal("job-000001 was not evicted at replay")
	}
	for i := 0; i < 2; i++ { // the second folds the first's checkpoint
		if err := s.wal.Compact(s.walKeep); err != nil {
			t.Fatalf("compaction %d: %v", i+1, err)
		}
	}
	s.wal.Close()

	before, err := wal.ReadAll(plain)
	if err != nil {
		t.Fatal(err)
	}
	after, err := wal.ReadAll(compacted)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]wal.Type{}
	for _, r := range after.Records {
		kinds[r.JobID] = append(kinds[r.JobID], r.Type)
	}
	if got := fmt.Sprint(kinds); got != "map[job-000002:[terminal] job-000003:[terminal] "+
		"job-000004:[submitted started case_done case_done] job-000005:[terminal]]" {
		t.Fatalf("checkpoint of %d records holds %s", len(before.Records), got)
	}

	want, got := replayOnly(t, plain, maxRecords), replayOnly(t, compacted, maxRecords)
	query := "/v1/query?q=" + url.QueryEscape(crashQuery)
	for _, path := range []string{"/v1/jobs", query} {
		if w, g := served(want, path), served(got, path); g != w {
			t.Fatalf("GET %s after compaction:\n got %s\nwant %s", path, g, w)
		}
	}
	if rows := strings.Count(served(got, query), "\n"); rows != 3 {
		t.Fatalf("query over the retained jobs returned %d rows, want 3 (2 spec cells + 1 job)", rows)
	}
}

// TestDrainWaitsForCompaction: Drain closes the log only after an
// in-flight compaction has ended.
func TestDrainWaitsForCompaction(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wal.SetCrashHook(func(p string) {
		if p == wal.CrashCompactPreRename {
			once.Do(func() { close(parked) })
			<-release
		}
	})
	t.Cleanup(func() { wal.SetCrashHook(nil) })
	finish := func(context.Context, *Job) (*experiments.Report, []*trainer.Result, error) {
		return nil, []*trainer.Result{{TotalTime: 1}}, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: t.TempDir(), WALCompactEvery: 1, runJob: finish})
	if st := waitTerminal(t, srv, submitID(t, ts, tinyJob), 10*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no compaction started")
	}
	drained := make(chan struct{})
	go func() {
		srv.Drain(context.Background())
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a compaction was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the compaction ended")
	}
	if n := srv.metrics.walCompactions.Load(); n != 1 {
		t.Fatalf("%d compactions completed before Drain returned, want 1", n)
	}
}

// waitCompaction returns once no compaction is running. Not for use after
// Drain, which keeps compactMu.
func (s *Server) waitCompaction() {
	s.compactMu.Lock()
	s.compactMu.Unlock()
}

// TestCrashHonoursCancelVerdict: a WAL holding submitted + started +
// cancel_requested (the crash beat the worker's terminal record) must
// recover the job as cancelled — the client was already told so.
func TestCrashHonoursCancelVerdict(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	l, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := json.Marshal(walSubmitted{
		Kind: KindJob, Name: "resnet18", SubmittedAt: time.Now().UTC(),
		Job: jobSpecFor(t, tinyJob),
	})
	for _, rec := range []wal.Record{
		{Type: wal.TypeSubmitted, JobID: "job-000001", Payload: sub},
		{Type: wal.TypeStarted, JobID: "job-000001", Payload: []byte(`{"started_at":"2026-01-01T00:00:00Z"}`)},
		{Type: wal.TypeCancelRequested, JobID: "job-000001", Payload: []byte(`{}`)},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	j := srv.store.get("job-000001")
	if j == nil {
		t.Fatal("cancelled job not recovered")
	}
	if st := j.StatusNow(); st != StatusCancelled {
		t.Fatalf("recovered status %s, want cancelled", st)
	}
	resp, body := getJSON(t, ts.URL+"/v1/jobs/job-000001")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"cancelled"`) {
		t.Fatalf("GET recovered job: %d %s", resp.StatusCode, body)
	}
}

// jobSpecFor parses a submit body's "job" field into a JobSpec.
func jobSpecFor(t *testing.T, body string) *experiments.JobSpec {
	t.Helper()
	var v struct {
		Job *experiments.JobSpec `json:"job"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil || v.Job == nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	return v.Job
}

// TestWALSurvivesRestartWithNewSubmissions: history accumulates across
// restarts — jobs from run 1 stay queryable in run 2 alongside new work,
// and a third boot sees everything.
func TestWALSurvivesRestartWithNewSubmissions(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	srv1, ts1 := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	id1 := submitID(t, ts1, tinyJob)
	if st := waitTerminal(t, srv1, id1, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job %s ended %s", id1, st)
	}
	result1 := outputJSON(t, ts1.URL, id1, "result")
	ts1.Close()
	srv1.Close()

	srv2, ts2 := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	if got := outputJSON(t, ts2.URL, id1, "result"); got != result1 {
		t.Fatalf("run-2 result for %s differs from run 1", id1)
	}
	id2 := submitID(t, ts2, tinyJob)
	if id2 == id1 {
		t.Fatalf("recovered sequence re-issued id %s", id1)
	}
	if st := waitTerminal(t, srv2, id2, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job %s ended %s", id2, st)
	}
	ts2.Close()
	srv2.Close()

	srv3, ts3 := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	for _, id := range []string{id1, id2} {
		if j := srv3.store.get(id); j == nil || !j.StatusNow().Terminal() {
			t.Fatalf("job %s missing after third boot", id)
		}
	}
	if got := outputJSON(t, ts3.URL, id1, "result"); got != result1 {
		t.Fatal("third boot lost run-1 result bytes")
	}
}

// TestPersistLoadErrorsCounted: a corrupt WAL frame is counted in the
// load-error metric and on /healthz instead of only being logged, and the
// records before it still load.
func TestPersistLoadErrorsCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	srv1, ts1 := newTestServer(t, Config{Workers: 1, WALDir: dir})
	id := submitID(t, ts1, tinyJob)
	if st := waitTerminal(t, srv1, id, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job %s ended %s", id, st)
	}
	ts1.Close()
	srv1.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment to corrupt (%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("{truncated")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: dir})
	if got := srv.metrics.persistLoadErrors.Load(); got != 1 {
		t.Fatalf("persistLoadErrors = %d, want 1", got)
	}
	if j := srv.store.get(id); j == nil || j.StatusNow() != StatusCompleted {
		t.Fatalf("job %s before the corrupt frame did not reload", id)
	}
	_, body := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(body, "stallserved_persist_load_errors_total 1") {
		t.Fatalf("metrics missing load error counter:\n%s", body)
	}
	resp, hz := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(hz, `"load_errors": 1`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, hz)
	}
}
