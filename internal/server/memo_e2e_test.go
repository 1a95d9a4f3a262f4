package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/memo"
)

// memoQuery orders every captured case deterministically, so two servers
// that ran the same single spec job must render identical NDJSON.
const memoQuery = `{"order_by":[{"col":"case_id"}]}`

// reportBytes fetches a completed job and returns its report re-marshalled.
func reportBytes(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
	var v jobJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Report == nil {
		t.Fatalf("job %s has no report", id)
	}
	b, err := json.Marshal(v.Report)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestE2EMemoWarmRunByteIdentical is the daemon-level memoization contract:
// a spec resubmitted to a -memo server simulates nothing (exact hit/miss
// accounting, surfaced in /metrics), a fresh server on the same directory
// serves entirely from disk, and every observable — report JSON and
// /v1/query NDJSON — is byte-identical to the cold run.
func TestE2EMemoWarmRunByteIdentical(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	body := `{"spec": ` + string(raw) + `}`
	dir := t.TempDir()

	srvA, tsA := newTestServer(t, Config{Workers: 2, MemoDir: dir})
	cold := submitID(t, tsA, body)
	if st := waitTerminal(t, srvA, cold, 120*time.Second); st != StatusCompleted {
		t.Fatalf("cold job ended %s (%s)", st, srvA.store.get(cold).view(true).Error)
	}
	goldenReport := reportBytes(t, tsA, cold)
	_, goldenQuery := getJSON(t, tsA.URL+"/v1/query?q="+url.QueryEscape(memoQuery))
	if !strings.Contains(goldenQuery, `"case_id":0`) {
		t.Fatalf("cold query output has no cases: %s", goldenQuery)
	}
	cs := srvA.memo.Stats()
	if cs.Hits != 0 || cs.Misses == 0 {
		t.Fatalf("cold run hits=%d misses=%d, want 0 hits and >0 misses", cs.Hits, cs.Misses)
	}
	unique := cs.Misses

	warm := submitID(t, tsA, body)
	if st := waitTerminal(t, srvA, warm, 120*time.Second); st != StatusCompleted {
		t.Fatalf("warm job ended %s", st)
	}
	ws := srvA.memo.Stats()
	if ws.Misses != unique {
		t.Fatalf("warm resubmit simulated %d new case(s)", ws.Misses-unique)
	}
	if ws.Hits != unique {
		t.Fatalf("warm hits = %d, want %d (every unique case served from cache)", ws.Hits, unique)
	}
	if got := reportBytes(t, tsA, warm); got != goldenReport {
		t.Fatalf("warm report differs from cold:\ncold: %s\nwarm: %s", goldenReport, got)
	}
	_, metrics := getJSON(t, tsA.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("stallserved_memo_hits_total %d", unique),
		fmt.Sprintf("stallserved_memo_misses_total %d", unique),
		fmt.Sprintf("stallserved_memo_disk_entries %d", unique),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// A fresh server on the same directory is a daemon restart: the whole
	// spec must be served from disk, and the rebuilt query store must
	// render the same NDJSON as the cold server did after one job.
	srvB, tsB := newTestServer(t, Config{Workers: 2, MemoDir: dir})
	restart := submitID(t, tsB, body)
	if st := waitTerminal(t, srvB, restart, 120*time.Second); st != StatusCompleted {
		t.Fatalf("restart job ended %s", st)
	}
	bs := srvB.memo.Stats()
	if bs.Misses != 0 || bs.Hits != unique {
		t.Fatalf("restarted server hits=%d misses=%d, want %d/0", bs.Hits, bs.Misses, unique)
	}
	if got := reportBytes(t, tsB, restart); got != goldenReport {
		t.Fatal("report after restart differs from cold run")
	}
	if _, q := getJSON(t, tsB.URL+"/v1/query?q="+url.QueryEscape(memoQuery)); q != goldenQuery {
		t.Fatalf("/v1/query after restart differs from cold run:\ncold: %s\nwarm: %s", goldenQuery, q)
	}
}

// TestE2EMemoEntryDurableBeforeTerminal: a miss's memo entry is written
// behind its case, yet when a single job's terminal WAL record is about to
// be appended, the job's <hh>/<hash>.memo is already on disk and decodes.
func TestE2EMemoEntryDurableBeforeTerminal(t *testing.T) {
	memoDir := t.TempDir()
	atTerminal := make(chan map[string][]byte, 1)
	t.Cleanup(func() { testHookWALTerminal = nil })
	testHookWALTerminal = func() {
		files, _ := filepath.Glob(filepath.Join(memoDir, "*", "*.memo"))
		seen := map[string][]byte{}
		for _, f := range files {
			if b, err := os.ReadFile(f); err == nil {
				seen[strings.TrimSuffix(filepath.Base(f), ".memo")] = b
			}
		}
		atTerminal <- seen
	}
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: t.TempDir(), MemoDir: memoDir})
	id := submitID(t, ts, tinyJob)
	var seen map[string][]byte
	select {
	case seen = <-atTerminal:
	case <-time.After(60 * time.Second):
		t.Fatal("the job's terminal record was never appended")
	}
	if st := waitTerminal(t, srv, id, 10*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	j := srv.store.get(id)
	key, err := experiments.CaseKey(j.jobs[0], j.opts, srv.memo.Salt())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := seen[key.Hash]
	if !ok {
		t.Fatalf("entry %s not on disk at the terminal append (saw %d entries)", key.Hash, len(seen))
	}
	if got, res, err := memo.DecodeEntry(b); err != nil || got.Hash != key.Hash || res == nil {
		t.Fatalf("entry on disk at the terminal append does not decode: %v", err)
	}
	if st := srv.memo.Stats(); st.Misses != 1 {
		t.Fatalf("memo misses %d, want 1", st.Misses)
	}
}
