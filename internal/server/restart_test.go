package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRestartKeepsQueryHistory: WAL terminal records carry the per-case
// capture, so after a restart /v1/query serves exactly the rows it served
// before — a restart must not silently erase query history.
func TestRestartKeepsQueryHistory(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 2, WALDir: dir})
	jobID := submitID(t, ts, tinyJob)
	specID := submitID(t, ts, tinySpec)
	for _, id := range []string{jobID, specID} {
		if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
			t.Fatalf("job %s ended %s", id, st)
		}
	}
	_, before := getJSON(t, ts.URL+"/v1/query")
	if n := len(strings.Split(strings.TrimRight(before, "\n"), "\n")); n != 3 {
		t.Fatalf("pre-restart scan has %d rows, want 3 (1 job + 2 spec cells):\n%s", n, before)
	}
	ts.Close()
	srv.Close()

	_, ts2 := newTestServer(t, Config{Workers: 2, WALDir: dir})
	_, after := getJSON(t, ts2.URL+"/v1/query")
	if after != before {
		t.Fatalf("query history changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}

	// The rehydrated single job carries its resolved identity from its
	// terminal record, not a zero config.
	_, row := getJSON(t, ts2.URL+"/v1/query?q="+`{"where":[{"col":"spec","op":"eq","value":"`+jobID+`"}],"select":["spec","model","loader","epochs"]}`)
	if !strings.Contains(row, `"model":"resnet18"`) || !strings.Contains(row, `"epochs":2`) {
		t.Fatalf("rehydrated job identity wrong: %s", row)
	}
}

// TestMaxRecordsEnforcedAtReload: a restart over a WAL holding more jobs
// than MaxRecords must apply the bound at load time, not only after the
// next job finishes.
func TestMaxRecordsEnforcedAtReload(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: dir})
	for i := 0; i < 4; i++ {
		id := submitID(t, ts, tinyJob)
		if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
			t.Fatalf("job ended %s", st)
		}
	}
	ts.Close()
	srv.Close()

	srv2, _ := newTestServer(t, Config{Workers: 1, MaxRecords: 2, WALDir: dir})
	if n := srv2.store.count(); n != 2 {
		t.Fatalf("reloaded store holds %d records, want MaxRecords=2 applied at load", n)
	}
}

// cancelOnWrite cancels the request context as soon as the first response
// byte is written — a deterministic stand-in for a mid-stream failure.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	wrote  bool
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	n, err := c.ResponseRecorder.Write(p)
	if !c.wrote {
		c.wrote = true
		c.cancel()
	}
	return n, err
}

// TestQueryStreamErrorLine: a /v1/query stream that dies mid-result must
// end with a typed {"error":{...}} NDJSON line, so clients can tell an
// aborted stream from a complete one.
func TestQueryStreamErrorLine(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := submitID(t, ts, tinySpec)
	if st := waitTerminal(t, srv, id, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"select":["case_id"]}`)).WithContext(ctx)
	w := &cancelOnWrite{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	srv.Handler().ServeHTTP(w, req)

	body := w.Body.String()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want at least one row plus the error line, got:\n%s", body)
	}
	if lines[0] != `{"case_id":0}` {
		t.Fatalf("first row %q", lines[0])
	}
	last := lines[len(lines)-1]
	e := decodeEnvelope(t, last)
	if e.Error.Code != codeInternal || !strings.Contains(e.Error.Message, "stream aborted after 1 rows") {
		t.Fatalf("terminal error line %q", last)
	}
}
