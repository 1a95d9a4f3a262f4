package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"datastall/internal/obs"
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
	seam := func(ctx context.Context, j *Job) (*experiments.Report, []*trainer.Result, error) {
		if panics.Add(-1) >= 0 {
			panic("injected crash")
		}
		results := make([]*trainer.Result, len(j.cfgs))
		for k, cfg := range j.cfgs {
			res, err := trainer.RunContext(ctx, cfg)
			if err != nil {
				return nil, nil, err
			}
			results[k] = res
		}
		return nil, results, nil
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

// TestCoordinatorRequestsPerBatch pins the batch protocol: a sweep costs
// each worker one POST /v1/jobs and one GET /v1/jobs/{id}/events per batch
// — one batch per cell of its placed share, up to its in-flight bound, so at most
// workers × WorkerInflight of each — and no polls or trace fetches, sweep
// after sweep, while every cell still counts as dispatched. New
// connections per sweep are logged: the coordinator's pool keeps one per
// in-flight batch, so a steady-state sweep should dial few or none.
func TestCoordinatorRequestsPerBatch(t *testing.T) {
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
	const inflight = 4 // the WorkerInflight default
	coord, ts := newCoordinatorServer(t, urls, nil)

	cells, share := placedShares(t, coord, raw)
	batches := 0
	for _, n := range share {
		batches += min(n, inflight)
	}
	if batches > len(urls)*inflight {
		t.Fatalf("%d batches expected, over the %d×%d bound", batches, len(urls), inflight)
	}
	for sweep := 1; sweep <= 3; sweep++ {
		posts.Store(0)
		streams.Store(0)
		other.Store(0)
		dials.Store(0)
		dispatched := coord.metrics.casesDispatched.Load()
		id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
		if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
			t.Fatalf("sweep %d ended %s (%s)", sweep, st, coord.store.get(id).view(true).Error)
		}
		if posts.Load() != int64(batches) || streams.Load() != int64(batches) || other.Load() != 0 {
			t.Fatalf("sweep %d: %d submits, %d event streams and %d other requests, want %d, %d and 0",
				sweep, posts.Load(), streams.Load(), other.Load(), batches, batches)
		}
		if n := coord.metrics.casesDispatched.Load() - dispatched; n != int64(len(cells)) {
			t.Fatalf("sweep %d: %d cases dispatched, want %d", sweep, n, len(cells))
		}
		t.Logf("sweep %d: %d batches for %d cells, %d new connections", sweep, batches, len(cells), dials.Load())
	}
	if n := coord.metrics.caseRetries.Load(); n != 0 {
		t.Fatalf("%d retries on a healthy fleet", n)
	}
}

// placedShares enumerates a spec's cells and counts how many of them the
// coordinator's placement gives each of its workers on a healthy fleet.
func placedShares(t *testing.T, coord *Server, raw []byte) ([]experiments.SpecCase, map[*coordWorker]int) {
	t.Helper()
	sp, err := experiments.LoadSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.EnumerateCases(sp, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	orders := make([][]*coordWorker, len(cells))
	for i, c := range cells {
		orders[i] = coord.coord.succession(sp.Name + "/" + c.Row + "/" + c.Case)
	}
	share := map[*coordWorker]int{}
	for _, w := range coord.coord.place(orders, 0) {
		share[w]++
	}
	return cells, share
}

// TestPlaceBoundsLoad: placement gives no worker more than its even share
// of a sweep, rounded up, sends every cell that fits to its ring home and
// the rest to the next successor with room, skips unhealthy workers, and
// lands the same cells the same way every time.
func TestPlaceBoundsLoad(t *testing.T) {
	c, err := newCoordinator(Config{WorkerURLs: []string{"http://a:1", "http://b:2", "http://c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 7, 20, 61} {
		orders := make([][]*coordWorker, n)
		for i := range orders {
			orders[i] = c.succession(fmt.Sprintf("sweep/%d/cell", i))
		}
		for down := -1; down < len(c.workers); down++ {
			for i, w := range c.workers {
				w.healthy.Store(i != down)
			}
			healthy := c.healthyCount()
			limit := (n + healthy - 1) / healthy
			got := c.place(orders, 0)
			if again := c.place(orders, 0); fmt.Sprint(again) != fmt.Sprint(got) {
				t.Fatalf("n=%d down=%d: placement differs across calls", n, down)
			}
			load := map[*coordWorker]int{}
			for i, w := range got {
				if w == nil || !w.healthy.Load() {
					t.Fatalf("n=%d down=%d: cell %d placed on %v", n, down, i, w)
				}
				// Every healthy worker the cell prefers to w was full when
				// the cell was placed.
				for _, pref := range orders[i] {
					if pref == w {
						break
					}
					if pref.healthy.Load() && load[pref] < limit {
						t.Fatalf("n=%d down=%d: cell %d skipped %s with room", n, down, i, pref.url)
					}
				}
				load[w]++
			}
			for w, k := range load {
				if k > limit {
					t.Fatalf("n=%d down=%d: %s holds %d cells, over %d", n, down, w.url, k, limit)
				}
			}
		}
	}
	for _, w := range c.workers {
		w.healthy.Store(false)
	}
	if got := c.place([][]*coordWorker{c.workers}, 0); got[0] != nil {
		t.Fatalf("no healthy worker, yet a cell was placed on %s", got[0].url)
	}
}

// TestCellTracesClipsToCase: each cell of a batch gets its own case
// subtree beneath copies of the batch's job and run spans cut to that
// case span's interval, so the copies nest inside the cell's attempt,
// which ends when the cell's own case_done arrives.
func TestCellTracesClipsToCase(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "job", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "run", StartUS: 5, DurUS: 90},
		{ID: 3, Parent: 2, Name: "case", StartUS: 10, DurUS: 30},
		{ID: 4, Parent: 3, Name: "simulate", StartUS: 11, DurUS: 28},
		{ID: 5, Parent: 2, Name: "case", StartUS: 45, DurUS: 40},
		{ID: 6, Parent: 5, Name: "simulate", StartUS: 46, DurUS: 38},
	}
	traces := cellTraces(recs, 2)
	if len(traces) != 2 {
		t.Fatalf("%d cell traces, want 2", len(traces))
	}
	for k, tr := range traces {
		if len(tr) != 4 {
			t.Fatalf("cell %d: %d spans, want job, run, case, simulate", k, len(tr))
		}
		cs := tr[2]
		for _, r := range tr[:2] {
			if r.StartUS != cs.StartUS || r.DurUS != cs.DurUS {
				t.Errorf("cell %d: %s copy spans [%d, +%d], want its case's [%d, +%d]", k, r.Name, r.StartUS, r.DurUS, cs.StartUS, cs.DurUS)
			}
		}
		if tr[3].Parent != cs.ID {
			t.Errorf("cell %d: simulate hangs under span %d, not its case %d", k, tr[3].Parent, cs.ID)
		}
	}
	if recs[0].DurUS != 100 || recs[1].DurUS != 90 {
		t.Error("cellTraces changed the batch's own records")
	}
	if cellTraces(recs, 3) != nil {
		t.Error("records for 2 cells grafted onto 3")
	}
}

// TestCoordinatorWorkerDiesMidBatch kills a worker after exactly one of
// its cells has streamed its case_done: only the cells it had not
// delivered are dispatched again, on the survivor, so cases_dispatched
// counts every cell once plus each re-routed cell once, and the report
// still byte-matches RunSpec.
func TestCoordinatorWorkerDiesMidBatch(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/specs/cache-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var victim atomic.Int32 // 1 + the victim's index; 0 until chosen
	hw := &holdingWriters{attached: make(chan struct{}), firstDone: make(chan struct{}), killed: make(chan struct{})}
	hold := func(i int32) func(http.Handler) http.Handler {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if victim.Load() == i+1 && strings.HasSuffix(r.URL.Path, "/events") {
					w = &holdingWriter{ResponseWriter: w, all: hw}
				}
				next.ServeHTTP(w, r)
			})
		}
	}
	var urls []string
	var servers []*httptest.Server
	for i := range int32(2) {
		_, ts := newWorker(t, Config{Workers: 1}, hold(i))
		urls = append(urls, ts.URL)
		servers = append(servers, ts)
	}
	coord, ts := newCoordinatorServer(t, urls, nil)
	cells, share := placedShares(t, coord, raw)
	vi := 0
	if share[coord.coord.workers[1]] > share[coord.coord.workers[0]] {
		vi = 1
	}
	victimShare := share[coord.coord.workers[vi]]
	if victimShare < 2 {
		t.Fatalf("the victim is placed %d cells; a mid-batch death needs 2", victimShare)
	}
	// Park a long job on the victim's single worker so that its batches
	// run only once every batch's event stream is attached.
	blocker := submitID(t, servers[vi], cancelJobBody)
	hw.streams.Store(int32(min(victimShare, 4))) // 4: the WorkerInflight default
	victim.Store(int32(vi) + 1)

	id := submitID(t, ts, `{"spec": `+string(raw)+`}`)
	for _, ch := range []chan struct{}{hw.attached, hw.firstDone} {
		select {
		case <-ch:
		case <-time.After(60 * time.Second):
			t.Fatal("the victim's batches never streamed")
		}
		if ch == hw.attached {
			if r, body := doMethod(t, "DELETE", servers[vi].URL+"/v1/jobs/"+blocker); r.StatusCode != 200 {
				t.Fatalf("DELETE blocker: %d %s", r.StatusCode, body)
			}
		}
	}
	close(hw.killed)
	servers[vi].CloseClientConnections()
	servers[vi].Close()
	if st := waitTerminal(t, coord, id, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, coord.store.get(id).view(true).Error)
	}
	viaHTTP, inProcess := specReportJSON(t, ts, id, raw)
	if viaHTTP != inProcess {
		t.Fatal("report after a mid-batch death differs from RunSpec")
	}
	rerouted := int64(victimShare - 1)
	if n := coord.metrics.casesDispatched.Load(); n != int64(len(cells))+rerouted {
		t.Fatalf("%d cases dispatched, want %d cells + %d re-routed", n, len(cells), rerouted)
	}
	if coord.metrics.caseRetries.Load() == 0 {
		t.Fatal("no retry counted for the dead worker's batch")
	}
}

// holdingWriters is the shared state of a victim worker's event streams:
// attached closes once streams of them have written their opening status
// line, firstDone once the first case_done line has gone out, and every
// later case_done or job_done write waits for killed and then fails
// unwritten.
type holdingWriters struct {
	streams, statuses, dones    atomic.Int32
	attached, firstDone, killed chan struct{}
}

type holdingWriter struct {
	http.ResponseWriter
	all *holdingWriters
}

func (h *holdingWriter) Write(b []byte) (int, error) {
	all := h.all
	switch {
	case bytes.Contains(b, []byte(`"type":"status"`)):
		if all.statuses.Add(1) == all.streams.Load() {
			close(all.attached)
		}
	case bytes.Contains(b, []byte(`"type":"case_done"`)) && all.dones.Add(1) == 1:
		n, err := h.ResponseWriter.Write(b)
		h.Flush()
		close(all.firstDone)
		return n, err
	case bytes.Contains(b, []byte(`"type":"case_done"`)) || bytes.Contains(b, []byte(`"type":"job_done"`)):
		<-all.killed
		return 0, errors.New("worker killed")
	}
	return h.ResponseWriter.Write(b)
}

func (h *holdingWriter) Flush() {
	if f, ok := h.ResponseWriter.(http.Flusher); ok {
		f.Flush()
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
