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
// Placement is a consistent-hash ring (FNV-64a, virtual nodes) keyed by
// the cell's grid coordinates, so a re-submitted spec routes its cells to
// the same workers. Failures — transport errors, 5xx, a worker-side panic
// captured by that worker's own isolation — mark the worker unhealthy and
// re-route the cell to the next distinct ring successor after exponential
// backoff; a background probe restores workers whose /healthz answers
// again. Deterministic failures (4xx at submit, a simulation error) are
// permanent and fail the job without burning retries.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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
	poll    time.Duration
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
	c := &coordinator{
		retries: cfg.CaseRetries,
		backoff: cfg.RetryBackoff,
		client:  &http.Client{},
		poll:    10 * time.Millisecond,
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
			c.ring = append(c.ring, ringSlot{hash: fnv64(fmt.Sprintf("%s#%d", base, p)), w: w})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	return c, nil
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
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
	h := fnv64(key)
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
		att := caseSpan.Start("attempt")
		att.SetAttr("attempt", strconv.Itoa(attempt+1))
		att.SetAttr("worker", w.url)
		res, err := s.coordRunOn(ctx, w, j, js, key, attempt+1, att)
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

// coordRunOn runs one cell on one specific worker: submit over POST
// /v1/jobs, poll GET /v1/jobs/{id} to terminal, decode the result. The
// error is wrapped permanent when retrying elsewhere cannot help.
func (s *Server) coordRunOn(ctx context.Context, w *coordWorker, j *Job, js experiments.JobSpec, key string, attempt int, att obs.Span) (*trainer.Result, error) {
	c := s.coord
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-w.sem }()
	s.metrics.casesDispatched.Add(1)

	body, err := json.Marshal(struct {
		Job    *experiments.JobSpec `json:"job"`
		Scale  float64              `json:"scale,omitempty"`
		Epochs int                  `json:"epochs,omitempty"`
		Seed   int64                `json:"seed,omitempty"`
	}{Job: &js, Scale: j.opts.Scale, Epochs: j.opts.Epochs, Seed: j.opts.Seed})
	if err != nil {
		return nil, &permanentError{err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if j.tracer != nil {
		// Propagate the trace across the hop: the worker continues this
		// trace ID, and the graft below stitches its spans under att.
		req.Header.Set("traceparent", obs.Traceparent(j.tracer.TraceID(), att.ID()))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		s.markDown(w, key, attempt, err)
		return nil, fmt.Errorf("submit: %w", err)
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		// Busy (full queue, quota) is retryable without declaring the
		// worker dead — its /healthz still answers.
		return nil, fmt.Errorf("submit: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
	case resp.StatusCode >= 500:
		s.markDown(w, key, attempt, fmt.Errorf("submit: HTTP %d", resp.StatusCode))
		return nil, fmt.Errorf("submit: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
	default:
		// 4xx: the workload itself was rejected; every worker agrees.
		return nil, &permanentError{fmt.Errorf("submit: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))}
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rb, &acc); err != nil || acc.ID == "" {
		return nil, fmt.Errorf("submit: %s: malformed accept body %q", w.url, firstLine(rb))
	}

	for {
		res, done, err := s.coordPollOnce(ctx, w, acc.ID, key, attempt)
		if done || err != nil {
			if err == nil && res != nil {
				// Merge the worker's own span tree under this attempt so the
				// distributed sweep reads as one trace.
				s.graftRemoteTrace(ctx, w, acc.ID, att)
			}
			if ctx.Err() != nil {
				// The coordinator-side job was cancelled (DELETE or drain):
				// release the worker promptly rather than orphaning the run.
				c.remoteCancel(w, acc.ID)
			}
			return res, err
		}
		select {
		case <-time.After(c.poll):
		case <-ctx.Done():
			c.remoteCancel(w, acc.ID)
			return nil, ctx.Err()
		}
	}
}

// coordPollOnce checks a remote job once; done reports a terminal answer
// (result or permanent/transient error resolved).
func (s *Server) coordPollOnce(ctx context.Context, w *coordWorker, id, key string, attempt int) (*trainer.Result, bool, error) {
	c := s.coord
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, true, &permanentError{err}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		s.markDown(w, key, attempt, err)
		return nil, true, fmt.Errorf("poll: %w", err)
	}
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		s.markDown(w, key, attempt, fmt.Errorf("poll: HTTP %d", resp.StatusCode))
		return nil, true, fmt.Errorf("poll: %s: HTTP %d", w.url, resp.StatusCode)
	}
	if resp.StatusCode != http.StatusOK {
		// The worker restarted and forgot the job: transient, resubmit
		// elsewhere.
		return nil, true, fmt.Errorf("poll: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
	}
	var v struct {
		Status Status          `json:"status"`
		Error  string          `json:"error,omitempty"`
		Result *trainer.Result `json:"result,omitempty"`
	}
	if err := json.Unmarshal(rb, &v); err != nil {
		return nil, true, fmt.Errorf("poll: %s: %w", w.url, err)
	}
	switch v.Status {
	case StatusCompleted:
		if v.Result == nil {
			return nil, true, fmt.Errorf("poll: %s: completed without a result", w.url)
		}
		return v.Result, true, nil
	case StatusFailed:
		if strings.Contains(v.Error, "panic") {
			// The worker's panic isolation captured a crash; the workload is
			// deterministic, but a crashing worker is suspect — re-route.
			s.markDown(w, key, attempt, fmt.Errorf("remote panic: %s", v.Error))
			return nil, true, fmt.Errorf("remote panic on %s: %s", w.url, v.Error)
		}
		return nil, true, &permanentError{fmt.Errorf("remote failure: %s", v.Error)}
	case StatusCancelled:
		// Someone (a drain, an operator) killed it under us: retryable.
		return nil, true, fmt.Errorf("remote job cancelled on %s", w.url)
	default:
		return nil, false, nil
	}
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
