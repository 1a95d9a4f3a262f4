package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/trainer"
)

// newWorker boots one real stallserved worker (optionally wrapped by mw)
// and returns its base URL.
func newWorker(t *testing.T, cfg Config, mw func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(srv.Handler())
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// newCoordinatorServer boots a coordinator over the given worker URLs with
// fast retry backoff.
func newCoordinatorServer(t *testing.T, urls []string, extra func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:      2,
		WorkerURLs:   urls,
		RetryBackoff: 5 * time.Millisecond,
	}
	if extra != nil {
		extra(&cfg)
	}
	return newTestServer(t, cfg)
}

// specReportJSON fetches a completed job's report and the in-process
// RunSpec rendering of the same spec, both as canonical JSON.
func specReportJSON(t *testing.T, ts *httptest.Server, id string, raw []byte) (viaHTTP, inProcess string) {
	t.Helper()
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
	var v jobJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Report == nil {
		t.Fatalf("completed spec job has no report: %s", body)
	}
	hb, err := json.Marshal(v.Report)
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
	db, err := json.Marshal(toReportJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	return string(hb), string(db)
}

// TestCoordinatorByteIdentical is the distributed fidelity guarantee: a
// spec scattered across two real workers gathers into a report
// byte-identical to the in-process RunSpec.
func TestCoordinatorByteIdentical(t *testing.T) {
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
	viaHTTP, inProcess := specReportJSON(t, ts, id, raw)
	if viaHTTP != inProcess {
		t.Fatalf("coordinator result differs from in-process RunSpec:\ncoord:  %s\ndirect: %s", viaHTTP, inProcess)
	}
	if coord.metrics.casesDispatched.Load() < 10 {
		t.Fatalf("dispatched %d cases, want >= 10", coord.metrics.casesDispatched.Load())
	}

	// A single job forwarded whole is just as faithful.
	jid := submitID(t, ts, tinyJob)
	if st := waitTerminal(t, coord, jid, 60*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+jid)
	var v jobJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil || v.Result == nil {
		t.Fatalf("forwarded job has no result: %s", body)
	}
	var js experiments.JobSpec
	if err := json.Unmarshal([]byte(`{"model": "resnet18", "scale": 0.005, "epochs": 2}`), &js); err != nil {
		t.Fatal(err)
	}
	cfg, err := js.Build(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := trainer.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(v.Result)
	want, _ := json.Marshal(direct)
	if string(got) != string(want) {
		t.Fatalf("forwarded job result differs:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestCoordinatorRetriesWorker500 injects 500s on the fleet's first two
// submits (whichever workers receive them — case routing depends on the
// listeners' ports): the affected cases re-route with backoff, the health
// probe restores the blamed workers, and the gathered report still
// byte-matches RunSpec.
func TestCoordinatorRetriesWorker500(t *testing.T) {
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
	// Backoff wide enough that the 250ms health probe can restore a blamed
	// worker even if both eat an injected 500 at the same instant.
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, func(c *Config) {
		c.RetryBackoff = 150 * time.Millisecond
	})

	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}
	viaHTTP, inProcess := specReportJSON(t, ts, id, raw)
	if viaHTTP != inProcess {
		t.Fatalf("report after 500 re-routing differs from RunSpec")
	}
	if fails.Load() >= 0 {
		t.Fatalf("the flaky worker was never hit (%d injections left)", fails.Load()+1)
	}
	if coord.metrics.caseRetries.Load() == 0 {
		t.Fatal("no retries counted despite injected 500s")
	}
}

// TestCoordinatorRetriesRemotePanic injects a fleet whose first job
// panics (captured by the serving worker's own isolation into a failed
// record): the coordinator treats the captured panic as a worker fault,
// re-routes, and the report still byte-matches RunSpec. The panic budget
// is shared across both workers so the test holds regardless of which
// worker consistent hashing picks first.
func TestCoordinatorRetriesRemotePanic(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var panics atomic.Int64
	panics.Store(1)
	seam := func(ctx context.Context, j *Job) (*experiments.Report, *trainer.Result, error) {
		if panics.Add(-1) >= 0 {
			panic("injected crash")
		}
		res, err := trainer.RunContext(ctx, j.cfg)
		return nil, res, err
	}
	_, w1 := newWorker(t, Config{Workers: 2, runJob: seam}, nil)
	_, w2 := newWorker(t, Config{Workers: 2, runJob: seam}, nil)
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, func(c *Config) {
		// Backoff wide enough that the 250ms health probe restores the
		// blamed worker before the per-case retry budget runs out.
		c.RetryBackoff = 150 * time.Millisecond
	})

	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}
	viaHTTP, inProcess := specReportJSON(t, ts, id, raw)
	if viaHTTP != inProcess {
		t.Fatalf("report after remote panic re-routing differs from RunSpec")
	}
	if panics.Load() >= 0 {
		t.Fatal("the panicking worker was never hit")
	}
}

// TestCoordinatorSurvivesWorkerDeath kills one worker outright mid-sweep —
// connections refused, not clean errors — and requires the merged report
// to still byte-match the single-node run.
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	// Count submits per worker and kill whichever receives a case first —
	// consistent hashing decides the victim, so pinning one ahead of time
	// would flake whenever the ring routes the whole grid elsewhere. Every
	// submit is held until the victim is picked and closed, so the victim
	// never starts, let alone completes, a case. A submit held on the
	// victim returns once closing its connection ends the request's
	// context; the body is read first because the server only watches the
	// connection for a hang-up after the body is consumed.
	var hits [2]atomic.Int64
	picked := make(chan struct{})
	countFor := func(n *atomic.Int64) func(http.Handler) http.Handler {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
					body, err := io.ReadAll(r.Body)
					if err != nil {
						return
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
					n.Add(1)
					select {
					case <-picked:
					case <-r.Context().Done():
						return
					}
				}
				next.ServeHTTP(w, r)
			})
		}
	}
	s1, w1 := newWorker(t, Config{Workers: 1}, countFor(&hits[0]))
	s2, w2 := newWorker(t, Config{Workers: 1}, countFor(&hits[1]))
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, nil)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(picked) }) }
	t.Cleanup(release) // runs before the servers close, even on failure

	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	deadline := time.After(60 * time.Second)
	for hits[0].Load() == 0 && hits[1].Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no worker ever received a case")
		case <-time.After(time.Millisecond):
		}
	}
	victimSrv, victim := s1, w1
	if hits[1].Load() > 0 {
		victimSrv, victim = s2, w2
	}
	// Stop accepting before dropping connections, so no submit can reach
	// the victim after its held ones are cancelled and Close waits on it.
	victim.Listener.Close()
	victim.CloseClientConnections()
	victim.Close()
	release()
	if n := victimSrv.store.count(); n != 0 {
		t.Fatalf("victim accepted %d jobs before it was closed", n)
	}

	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}
	viaHTTP, inProcess := specReportJSON(t, ts, id, raw)
	if viaHTTP != inProcess {
		t.Fatalf("report after worker death differs from RunSpec")
	}
	// The dead worker must be marked unhealthy (nothing restores it: the
	// listener is gone for good).
	_, text := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(text, "stallserved_fleet_workers 2") ||
		!strings.Contains(text, "stallserved_fleet_workers_healthy 1") {
		t.Fatalf("fleet gauges after death:\n%s", text)
	}
}

// TestCoordinatorPermanentFailure: a workload that fails deterministically
// (spec whose base has no scale) must fail the job without burning retries
// on other workers.
func TestCoordinatorPermanentFailure(t *testing.T) {
	_, w1 := newWorker(t, Config{Workers: 1}, nil)
	_, w2 := newWorker(t, Config{Workers: 1}, nil)
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, nil)

	id := submitID(t, ts, `{"spec": {"name": "noscale", "row_header": ["model"],
		"base": {"model": "resnet18", "epochs": 1},
		"rows": {"cases": [{"set": {}}]},
		"columns": [{"label": "s", "metric": "epoch_s"}]}}`)
	if st := waitTerminal(t, coord, id, 60*time.Second); st != StatusFailed {
		t.Fatalf("no-scale spec ended %s, want failed", st)
	}
	if n := coord.metrics.caseRetries.Load(); n != 0 {
		t.Fatalf("%d retries burned on a deterministic failure", n)
	}
}

// postJSONTenant posts with an X-Tenant header.
func postJSONTenant(t *testing.T, url, tenant, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
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

// TestTenantQuota: a tenant at its active-job bound gets 429
// quota_exceeded; other tenants are unaffected; finishing a job frees the
// slot.
func TestTenantQuota(t *testing.T) {
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, TenantQuota: 1, runJob: blockingRunner(release),
	})

	// Anonymous tenant fills its quota of one.
	first := submitID(t, ts, tinyJob)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", tinyJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %s", resp.StatusCode, body)
	}
	if e := decodeEnvelope(t, body); e.Error.Code != codeQuotaExceeded {
		t.Fatalf("code %q, want %q", e.Error.Code, codeQuotaExceeded)
	}

	// A named tenant has its own bound.
	resp, body = postJSONTenant(t, ts.URL+"/v1/jobs", "alice", tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice's first submit: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSONTenant(t, ts.URL+"/v1/jobs", "alice", tinyJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: %d %s", resp.StatusCode, body)
	}

	// Quota slots free when jobs finish.
	close(release)
	if st := waitTerminal(t, srv, first, 30*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = postJSON(t, ts.URL+"/v1/jobs", tinyJob)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %d %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The rejections were counted.
	_, text := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(text, "stallserved_jobs_quota_rejected_total 2") {
		t.Fatalf("quota_rejected_total:\n%s", text)
	}

	// The recorded tenant survives the wire form.
	_, jb := getJSON(t, ts.URL+"/v1/jobs")
	if !strings.Contains(jb, `"tenant": "alice"`) {
		t.Fatalf("tenant missing from job listing:\n%s", jb)
	}
}
