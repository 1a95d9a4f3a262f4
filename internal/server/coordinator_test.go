package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
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

// TestCoordinatorSurvivesWorkerDeath covers a worker lost under a sweep,
// three ways, and requires the merged report to still byte-match the
// single-node run each time:
//   - killed: one worker dies outright — connections refused, not clean
//     errors — and stays marked unhealthy;
//   - stream_broken: a case's event stream breaks before job_done, as it
//     does when the worker dies mid-case; the worker is marked down and
//     the case re-routes;
//   - events_404: the worker answers the stream with 404, as a restarted
//     worker that forgot the job does; that is transient, so the case
//     re-routes without blaming the worker.
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("killed", func(t *testing.T) { survivesKilledWorker(t, raw) })

	// faultyStream answers the fleet's first event-stream request with
	// fault, and every other request normally.
	faultyStream := func(t *testing.T, fault http.HandlerFunc) (unhealthy []capturedRec) {
		var budget atomic.Int64
		budget.Store(1)
		mw := func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/events") && budget.Add(-1) == 0 {
					fault(w, r)
					return
				}
				next.ServeHTTP(w, r)
			})
		}
		_, w1 := newWorker(t, Config{Workers: 2}, mw)
		_, w2 := newWorker(t, Config{Workers: 2}, mw)
		capture := &logCapture{}
		coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, func(c *Config) {
			c.Log = slog.New(captureHandler{c: capture})
		})
		id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
		if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
			t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
		}
		viaHTTP, inProcess := specReportJSON(t, ts, id, raw)
		if viaHTTP != inProcess {
			t.Fatalf("report after a faulty event stream differs from RunSpec")
		}
		if budget.Load() > 0 {
			t.Fatal("no event stream was ever faulted")
		}
		if n := coord.metrics.caseRetries.Load(); n != 1 {
			t.Fatalf("%d retries, want 1 (the faulted case)", n)
		}
		for _, rec := range capture.records() {
			if rec.msg == "coordinator: worker unhealthy" {
				unhealthy = append(unhealthy, rec)
			}
		}
		return unhealthy
	}
	t.Run("stream_broken", func(t *testing.T) {
		unhealthy := faultyStream(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"type":"status","job":"x","status":"running"}`+"\n")
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // drop the connection mid-stream
		})
		if len(unhealthy) != 1 || !strings.Contains(fmt.Sprint(unhealthy[0].attrs["error"]), "before job_done") {
			t.Fatalf("a broken stream must mark its worker down once; unhealthy lines: %v", unhealthy)
		}
	})
	t.Run("events_404", func(t *testing.T) {
		unhealthy := faultyStream(t, func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusNotFound, codeNotFound, "unknown job")
		})
		if len(unhealthy) != 0 {
			t.Fatalf("a 404 stream is transient, but the worker was marked down: %v", unhealthy)
		}
	})
}

// survivesKilledWorker kills one worker outright mid-sweep.
func survivesKilledWorker(t *testing.T, raw []byte) {
	// Count submits per worker and kill whichever receives a case first:
	// which worker that is depends on the listeners' ports, so the victim
	// cannot be pinned ahead of time. Every submit is held until the
	// victim is picked and closed, so the victim never starts, let alone
	// completes, a case. A submit held on the victim returns once closing
	// its connection ends the request's context; the body is read first
	// because the server only watches the connection for a hang-up after
	// the body is consumed.
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

// TestRingSharesBalanced: over 200 seeded two-worker fleets on random
// loopback ports, each worker owns 35–65% of the hash circle, so where a
// fleet's cases land does not hinge on the ports its workers happened to
// get.
func TestRingSharesBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for fleet := 0; fleet < 200; fleet++ {
		p1 := 32768 + rng.Intn(28232)
		p2 := p1
		for p2 == p1 {
			p2 = 32768 + rng.Intn(28232)
		}
		c, err := newCoordinator(Config{WorkerURLs: []string{
			fmt.Sprintf("http://127.0.0.1:%d", p1), fmt.Sprintf("http://127.0.0.1:%d", p2),
		}})
		if err != nil {
			t.Fatal(err)
		}
		// A key hashing into (previous point, point] routes to the point's
		// worker; the first point also owns the wrap-around arc.
		share := map[*coordWorker]float64{}
		for i, slot := range c.ring {
			prev := c.ring[(i+len(c.ring)-1)%len(c.ring)].hash
			share[slot.w] += float64(slot.hash-prev) / math.Exp2(64)
		}
		for _, w := range c.workers {
			if f := share[w]; f < 0.35 || f > 0.65 {
				t.Errorf("ports %d/%d: %s owns %.1f%% of the ring, want 35–65%%", p1, p2, w.url, 100*f)
			}
		}
	}
}

// TestCoordinatorRequestsPerCell: a cell costs its worker exactly one
// POST /v1/jobs and one GET /v1/jobs/{id}/events — no polls and no trace
// fetches — sweep after sweep. New connections per sweep are logged: the
// coordinator's pool keeps one per in-flight cell, so a steady-state sweep
// should dial few or none.
func TestCoordinatorRequestsPerCell(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var posts, streams, other, dials atomic.Int64
	var urls []string
	for range 2 {
		srv, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
				posts.Add(1)
			case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events"):
				streams.Add(1)
			default:
				other.Add(1)
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls = append(urls, ts.URL)
	}
	coord, ts := newCoordinatorServer(t, urls, nil)

	const cells = 10 // cache-sweep: 5 rows × 2 loaders, no duplicates
	for sweep := 1; sweep <= 3; sweep++ {
		posts.Store(0)
		streams.Store(0)
		other.Store(0)
		dials.Store(0)
		id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
		if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
			t.Fatalf("sweep %d ended %s (%s)", sweep, st, coord.store.get(id).view(true).Error)
		}
		if posts.Load() != cells || streams.Load() != cells || other.Load() != 0 {
			t.Fatalf("sweep %d: %d submits, %d event streams and %d other requests, want %d, %d and 0",
				sweep, posts.Load(), streams.Load(), other.Load(), cells, cells)
		}
		t.Logf("sweep %d: %d new connections", sweep, dials.Load())
	}
	if n := coord.metrics.caseRetries.Load(); n != 0 {
		t.Fatalf("%d retries on a healthy fleet", n)
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
