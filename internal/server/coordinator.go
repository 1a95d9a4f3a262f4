// Coordinator mode: scatter/gather execution of a Spec's case grid across
// a fleet of stallserved workers, over the same public HTTP API clients
// use. A coordinator runs the one cell executor RunSpec runs
// (experiments.Executor), configured with coordRunner as its runner and
// one goroutine per unique cell, bounded by per-worker in-flight
// semaphores. WAL resume, dedupe and memo lookups happen in the executor
// before a cell reaches the wire. The gathered results assemble through
// experiments.AssembleReport exactly as RunSpec's do, so the Report is
// byte-identical to a single-node run by construction: each cell ships as
// a (JobSpec, Options) pair, the worker resolves and runs the same
// deterministic simulation, and the result's float64 fields survive the
// JSON hop exactly (Go emits shortest-roundtrip floats). A single job is a
// one-cell grid, forwarded whole.
//
// A cell costs two requests: POST /v1/jobs, then GET /v1/jobs/{id}/events
// read to the closing job_done line, which carries the remote job's status,
// its result and the worker's span records (the submit sends a
// traceparent), grafted under the attempt span. Connections to each worker
// are pooled, one per in-flight cell.
//
// Placement is a consistent-hash ring (FNV-64a finalized by splitmix64's
// mixer, virtual nodes) keyed by the cell's grid coordinates, so a
// re-submitted spec routes its cells to the same workers. Failures —
// transport errors, 5xx, an event stream that breaks before job_done, a
// worker-side panic captured by that worker's own isolation — mark the
// worker unhealthy and re-route the cell to the next distinct ring
// successor after exponential backoff; a background probe restores workers
// whose /healthz answers again. Deterministic failures (4xx at submit, a
// simulation error) are permanent and fail the job without burning
// retries.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// ringPoints is the number of virtual nodes per worker on the hash ring;
// enough to spread cases evenly across small fleets.
const ringPoints = 64

// coordWorker is one remote stallserved the coordinator dispatches to.
type coordWorker struct {
	url     string
	healthy atomic.Bool
	// sem bounds cases in flight on this worker.
	sem chan struct{}
}

// ringSlot is one virtual node: a point on the hash circle owned by a worker.
type ringSlot struct {
	hash uint64
	w    *coordWorker
}

// coordinator scatters grid cells to workers and gathers their results.
type coordinator struct {
	workers []*coordWorker
	ring    []ringSlot
	retries int           // re-route attempts per case beyond the first
	backoff time.Duration // first retry delay, doubling per attempt
	client  *http.Client
}

// newCoordinator validates the worker fleet and builds the hash ring.
func newCoordinator(cfg Config) (*coordinator, error) {
	if len(cfg.WorkerURLs) == 0 {
		return nil, fmt.Errorf("coordinator: no worker URLs")
	}
	inflight := cfg.WorkerInflight
	if inflight <= 0 {
		inflight = 4
	}
	// Each in-flight cell holds one connection at a time (its submit, then
	// its event stream); twice the bound per worker leaves room for health
	// probes and cancels without dialing anew.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * inflight
	c := &coordinator{
		retries: cfg.CaseRetries,
		backoff: cfg.RetryBackoff,
		client:  &http.Client{Transport: tr},
	}
	if c.retries <= 0 {
		c.retries = 3
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	seen := map[string]bool{}
	for _, raw := range cfg.WorkerURLs {
		u, err := url.Parse(strings.TrimRight(strings.TrimSpace(raw), "/"))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("coordinator: worker URL %q is not http(s)://host[:port]", raw)
		}
		base := u.Scheme + "://" + u.Host + u.Path
		if seen[base] {
			continue
		}
		seen[base] = true
		w := &coordWorker{url: base, sem: make(chan struct{}, inflight)}
		w.healthy.Store(true)
		c.workers = append(c.workers, w)
		for p := 0; p < ringPoints; p++ {
			c.ring = append(c.ring, ringSlot{hash: ringHash(base + "#" + strconv.Itoa(p)), w: w})
		}
	}
	tr.MaxIdleConns = len(c.workers) * tr.MaxIdleConnsPerHost
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	return c, nil
}

// ringHash places a string on the hash circle: FNV-64a, finalized with
// splitmix64's mixer. Raw FNV-64a clusters the virtual nodes "url#0" …
// "url#63", which differ only in their last bytes, so one worker of a pair
// could own anywhere from 1% to 94% of the circle; the mixer spreads every
// input bit over the whole word.
func ringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

func (c *coordinator) healthyCount() int {
	n := 0
	for _, w := range c.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// succession returns the distinct workers in ring order starting at the
// key's position: the case's home worker first, then each failover
// candidate — a stable preference list for retries.
func (c *coordinator) succession(key string) []*coordWorker {
	h := ringHash(key)
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	out := make([]*coordWorker, 0, len(c.workers))
	seen := map[*coordWorker]bool{}
	for n := 0; n < len(c.ring) && len(out) < len(c.workers); n++ {
		w := c.ring[(i+n)%len(c.ring)].w
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// pick returns the attempt-th preference that is currently healthy, scanning
// forward so retries walk to the next distinct worker.
func pick(order []*coordWorker, attempt int) *coordWorker {
	for n := 0; n < len(order); n++ {
		if w := order[(attempt+n)%len(order)]; w.healthy.Load() {
			return w
		}
	}
	return nil
}

// permanentError marks a failure that re-routing cannot fix: the workload
// itself is invalid or deterministically fails, so every worker would
// return the same answer.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// healthLoop probes unhealthy workers' /healthz until ctx ends, restoring
// the ones that answer again so the ring heals after transient deaths.
func (c *coordinator) healthLoop(ctx context.Context, log *slog.Logger) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, w := range c.workers {
			if w.healthy.Load() {
				continue
			}
			if c.probe(ctx, w) {
				w.healthy.Store(true)
				log.Info("coordinator: worker healthy again", "worker", w.url)
			}
		}
	}
}

// probe checks one worker's /healthz.
func (c *coordinator) probe(ctx context.Context, w *coordWorker) bool {
	pctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// coordRunner is the coordinator's cell runner: every cell the executor
// does not resume, dedupe or serve from the memo goes to the fleet through
// coordRunCase. Spec cells route by their grid coordinates; a single job
// routes by its own identity, with the job ID kept out of the span
// attribute so trace topology is stable across reruns.
func (s *Server) coordRunner(j *Job) experiments.RunCell {
	return func(ctx context.Context, c experiments.SpecCase, sp obs.Span) (*trainer.Result, error) {
		key := j.Name + "/" + c.Row + "/" + c.Case
		attr := key
		if j.Kind == KindJob {
			attr = "job/" + j.Name
			key = attr + "/" + j.ID
		}
		sp.SetAttr("case_key", attr)
		res, err := s.coordRunCase(ctx, j, key, c.Job, sp)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", key, err)
		}
		return res, nil
	}
}

// coordRunCase runs one cell remotely with re-routing: each attempt picks
// the next healthy worker on the cell's ring succession, with exponential
// backoff between attempts. Permanent errors (invalid workload,
// deterministic failure) abort immediately.
func (s *Server) coordRunCase(ctx context.Context, j *Job, key string, js experiments.JobSpec, caseSpan obs.Span) (*trainer.Result, error) {
	c := s.coord
	order := c.succession(key)
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			s.metrics.caseRetries.Add(1)
			d := c.backoff << (attempt - 1)
			if d > 5*time.Second {
				d = 5 * time.Second
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		w := pick(order, attempt)
		if w == nil {
			lastErr = fmt.Errorf("no healthy workers (%d configured)", len(c.workers))
			continue
		}
		select {
		case w.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// The attempt span opens once the worker's in-flight slot is held,
		// so it times the dispatch, not the wait for a slot.
		att := caseSpan.Start("attempt")
		att.SetAttr("attempt", strconv.Itoa(attempt+1))
		att.SetAttr("worker", w.url)
		res, err := s.coordRunOn(ctx, w, j, js, key, attempt+1, att)
		<-w.sem
		if err == nil {
			att.End()
			return res, nil
		}
		att.SetAttr("error", err.Error())
		att.End()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return nil, pe.err
		}
		lastErr = err
		j.logger().Warn("case attempt failed",
			"case_key", key, "worker", w.url,
			"attempt", attempt+1, "max_attempts", c.retries+1, "error", err)
	}
	return nil, fmt.Errorf("gave up after %d attempts: %w", c.retries+1, lastErr)
}

// markDown flags a worker unhealthy until the health loop restores it.
func (s *Server) markDown(w *coordWorker, key string, attempt int, err error) {
	if w.healthy.CompareAndSwap(true, false) {
		s.log.Warn("coordinator: worker unhealthy",
			"worker", w.url, "case_key", key, "attempt", attempt, "error", err)
	}
}

// coordRunOn runs one cell on one specific worker, whose in-flight slot the
// caller holds: submit over POST /v1/jobs, then follow GET
// /v1/jobs/{id}/events to job_done, which carries the outcome and, when
// traced, the worker's spans. The error is wrapped permanent when retrying
// elsewhere cannot help.
func (s *Server) coordRunOn(ctx context.Context, w *coordWorker, j *Job, js experiments.JobSpec, key string, attempt int, att obs.Span) (*trainer.Result, error) {
	s.metrics.casesDispatched.Add(1)
	id, err := s.coordSubmit(ctx, w, j, js, key, attempt, att)
	if err != nil {
		return nil, err
	}
	done, err := s.coordAwait(ctx, w, id, key, attempt)
	if ctx.Err() != nil {
		// The coordinator-side job was cancelled (DELETE or drain):
		// release the worker promptly rather than orphaning the run.
		s.coord.remoteCancel(w, id)
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	res, err := s.settle(w, key, attempt, done)
	if err == nil {
		// Merge the worker's own span tree under this attempt so the
		// distributed sweep reads as one trace.
		att.Graft(done.Spans)
	}
	return res, err
}

// coordSubmit POSTs one cell to a worker and returns the remote job's ID.
func (s *Server) coordSubmit(ctx context.Context, w *coordWorker, j *Job, js experiments.JobSpec, key string, attempt int, att obs.Span) (string, error) {
	body, err := json.Marshal(struct {
		Job    *experiments.JobSpec `json:"job"`
		Scale  float64              `json:"scale,omitempty"`
		Epochs int                  `json:"epochs,omitempty"`
		Seed   int64                `json:"seed,omitempty"`
	}{Job: &js, Scale: j.opts.Scale, Epochs: j.opts.Epochs, Seed: j.opts.Seed})
	if err != nil {
		return "", &permanentError{err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if j.tracer != nil {
		// Propagate the trace across the hop: the worker continues this
		// trace ID and returns its spans on job_done for the graft.
		req.Header.Set("traceparent", obs.Traceparent(j.tracer.TraceID(), att.ID()))
	}
	resp, err := s.coord.client.Do(req)
	if err != nil {
		s.markDown(w, key, attempt, err)
		return "", fmt.Errorf("submit: %w", err)
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		// Busy (full queue, quota) is retryable without declaring the
		// worker dead — its /healthz still answers.
		return "", fmt.Errorf("submit: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
	case resp.StatusCode >= 500:
		s.markDown(w, key, attempt, fmt.Errorf("submit: HTTP %d", resp.StatusCode))
		return "", fmt.Errorf("submit: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
	default:
		// 4xx: the workload itself was rejected; every worker agrees.
		return "", &permanentError{fmt.Errorf("submit: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))}
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rb, &acc); err != nil || acc.ID == "" {
		return "", fmt.Errorf("submit: %s: malformed accept body %q", w.url, firstLine(rb))
	}
	return acc.ID, nil
}

// remoteDone is what the coordinator reads of a worker's event stream: the
// fields of its closing job_done line.
type remoteDone struct {
	Type   string           `json:"type"`
	Status Status           `json:"status"`
	Error  string           `json:"error"`
	Result *trainer.Result  `json:"result"`
	Spans  []obs.SpanRecord `json:"spans"`
}

// coordAwait follows a remote job's event stream to its job_done line,
// then reads the stream to its end so the connection returns to the pool.
// A stream that breaks before job_done means the worker died under the
// case: it is marked down and the case re-routes. A 404 — a restarted
// worker that forgot the job — is transient.
func (s *Server) coordAwait(ctx context.Context, w *coordWorker, id, key string, attempt int) (*remoteDone, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, &permanentError{err}
	}
	resp, err := s.coord.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			s.markDown(w, key, attempt, err)
		}
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		err := fmt.Errorf("events: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
		if resp.StatusCode >= 500 {
			s.markDown(w, key, attempt, err)
		}
		return nil, err
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, 64<<20))
	var ev remoteDone
	for {
		ev = remoteDone{}
		if err := dec.Decode(&ev); err != nil {
			err = fmt.Errorf("events: %s: stream ended before job_done: %w", w.url, err)
			if ctx.Err() == nil {
				s.markDown(w, key, attempt, err)
			}
			return nil, err
		}
		if ev.Type == "job_done" {
			io.Copy(io.Discard, resp.Body)
			return &ev, nil
		}
	}
}

// settle classifies a remote job's terminal answer: a completed job yields
// its result; a captured panic marks the worker down and re-routes; any
// other failure is permanent; a cancel under the case (a drain, an
// operator) re-routes.
func (s *Server) settle(w *coordWorker, key string, attempt int, d *remoteDone) (*trainer.Result, error) {
	switch d.Status {
	case StatusCompleted:
		if d.Result == nil {
			return nil, fmt.Errorf("%s: completed without a result", w.url)
		}
		return d.Result, nil
	case StatusFailed:
		if strings.Contains(d.Error, "panic") {
			// The worker's panic isolation captured a crash; the workload is
			// deterministic, but a crashing worker is suspect — re-route.
			s.markDown(w, key, attempt, fmt.Errorf("remote panic: %s", d.Error))
			return nil, fmt.Errorf("remote panic on %s: %s", w.url, d.Error)
		}
		return nil, &permanentError{fmt.Errorf("remote failure: %s", d.Error)}
	case StatusCancelled:
		return nil, fmt.Errorf("remote job cancelled on %s", w.url)
	}
	return nil, fmt.Errorf("%s: job_done with status %q", w.url, d.Status)
}

// remoteCancel best-effort DELETEs an in-flight remote job after the
// coordinator-side context died.
func (c *coordinator) remoteCancel(w *coordWorker, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.url+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// firstLine truncates a response body to its first line for error messages.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
