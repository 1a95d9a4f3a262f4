// Coordinator mode: scatter/gather execution of a Spec's case grid across
// a fleet of stallserved workers, over the same public HTTP API clients
// use. A coordinator runs the one cell executor RunSpec runs
// (experiments.Executor), configured with coordBatch as its batch runner:
// WAL resume, dedupe and memo lookups happen in the executor, and every
// cell left goes to the fleet in one call. The gathered results assemble
// through experiments.AssembleReport exactly as RunSpec's do, so the
// Report is byte-identical to a single-node run by construction: each cell
// ships as a (JobSpec, Options) pair, the worker resolves and runs the same
// deterministic simulation, and the result's float64 fields survive the
// JSON hop exactly (Go emits shortest-roundtrip floats). A single job is a
// one-cell grid, forwarded whole.
//
// Each worker gets its share of the cells as at most WorkerInflight
// batches, the share dealt round-robin in index order. A batch costs two
// requests: POST /v1/jobs with {"jobs": [...]}, then GET
// /v1/jobs/{id}/events, which streams a case_done event with each entry's
// index and result as the worker captures it, and closes with job_done,
// carrying the status, every result and the worker's span records (the
// submit sends a traceparent); each cell's part of the worker's span tree
// is grafted under its attempt span. Connections to each worker are pooled, one per
// in-flight batch.
//
// Placement is a consistent-hash ring (FNV-64a finalized by splitmix64's
// mixer, virtual nodes) keyed by the cell's grid coordinates, with bounded
// loads: no worker takes more than its even share of the cells, rounded
// up, the surplus spilling to each cell's next ring successor. A
// re-submitted spec routes its cells to the same workers. Failures —
// transport errors, 5xx, an event stream that breaks before job_done, a
// worker-side panic captured by that worker's own isolation — mark the
// worker unhealthy and re-route the batch's cells that had no case_done
// yet to their next distinct ring successors after exponential backoff; a
// background probe restores workers
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
	"sync"
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
	// sem bounds batches in flight on this worker.
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
	// Each in-flight batch holds one connection at a time (its submit, then
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

// place assigns cells, given their ring successions, to healthy workers
// with bounded loads: in index order, each cell goes to the first healthy
// worker of its succession, from the attempt-th preference on, that holds
// fewer than ⌈cells/healthy workers⌉ of them. Most cells land on their
// ring home; the rest spill to their next successor, so no worker waits
// on another's surplus, and the same cells on the same healthy fleet
// always land the same way. A nil worker means none is healthy.
func (c *coordinator) place(orders [][]*coordWorker, attempt int) []*coordWorker {
	out := make([]*coordWorker, len(orders))
	h := c.healthyCount()
	if h == 0 {
		return out
	}
	limit := (len(orders) + h - 1) / h
	load := make(map[*coordWorker]int, h)
	for i, order := range orders {
		// The second pass, past the bound, is for a worker that went down
		// mid-placement and left the rest full.
		for pass := 0; pass < 2 && out[i] == nil; pass++ {
			for n := 0; n < len(order) && out[i] == nil; n++ {
				if w := order[(attempt+n)%len(order)]; w.healthy.Load() && (pass > 0 || load[w] < limit) {
					out[i] = w
				}
			}
		}
		load[out[i]]++
	}
	return out
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

// coordCell is one cell of a coordinator job on its way to the fleet: its
// position in the executor's batch, its routing key and ring succession,
// its case span, and the attempt span and delivery state of its current
// dispatch (owned by the one goroutine that dispatches it).
type coordCell struct {
	k     int
	key   string
	job   experiments.JobSpec
	order []*coordWorker
	span  obs.Span

	att       obs.Span
	delivered bool
}

// coordDispatch is one Execute call's scatter: every batch it sends and
// re-sends, and the first error, which cancels the rest.
type coordDispatch struct {
	s       *Server
	j       *Job
	ctx     context.Context
	cancel  context.CancelFunc
	deliver func(k int, res *trainer.Result)
	wg      sync.WaitGroup
	mu      sync.Mutex
	err     error
}

// coordBatch is the coordinator's batch runner: the cells the executor
// did not resume, dedupe or serve from the memo go to the fleet together.
// Spec cells route by their grid coordinates; a single job routes by its
// own identity, with the job ID kept out of the span attribute so trace
// topology is stable across reruns, and a batch's entries by their index.
func (s *Server) coordBatch(j *Job) experiments.RunBatch {
	return func(ctx context.Context, cells []experiments.SpecCase, spans []obs.Span, deliver func(int, *trainer.Result)) error {
		d := &coordDispatch{s: s, j: j, deliver: deliver}
		d.ctx, d.cancel = context.WithCancel(ctx)
		defer d.cancel()
		all := make([]*coordCell, len(cells))
		for k, c := range cells {
			var key, attr string
			switch j.Kind {
			case KindSpec:
				key = j.Name + "/" + c.Row + "/" + c.Case
				attr = key
			case KindJob:
				attr = "job/" + j.Name
				key = attr + "/" + j.ID
			default:
				attr = "batch/" + strconv.Itoa(c.Index)
				key = attr + "/" + j.ID
			}
			spans[k].SetAttr("case_key", attr)
			all[k] = &coordCell{k: k, key: key, job: c.Job, order: s.coord.succession(key), span: spans[k]}
		}
		d.scatter(all, 0)
		d.wg.Wait()
		return d.err
	}
}

// scatter sends cells, all at the same attempt, to the workers place
// picks: a worker's share goes out round-robin, in index order, as at most
// its in-flight bound of batches (more only when a batch would otherwise
// pass maxBatchJobs).
func (d *coordDispatch) scatter(cells []*coordCell, attempt int) {
	orders := make([][]*coordWorker, len(cells))
	for i, cl := range cells {
		orders[i] = cl.order
	}
	shares := map[*coordWorker][]*coordCell{}
	var workers []*coordWorker // in order of first appearance
	for i, w := range d.s.coord.place(orders, attempt) {
		if _, ok := shares[w]; !ok {
			workers = append(workers, w)
		}
		shares[w] = append(shares[w], cells[i])
	}
	for _, w := range workers {
		share := shares[w]
		n := 1 // no healthy worker: the share fails its attempt as one
		if w != nil {
			n = min(cap(w.sem), len(share))
		}
		n = max(n, (len(share)+maxBatchJobs-1)/maxBatchJobs)
		for b := 0; b < n; b++ {
			batch := make([]*coordCell, 0, (len(share)+n-1)/n)
			for i := b; i < len(share); i += n {
				batch = append(batch, share[i])
			}
			d.wg.Add(1)
			go d.send(w, batch, attempt)
		}
	}
}

// send runs one batch on one worker. The cells it could not deliver are
// re-routed, after exponential backoff, to their next healthy successors;
// a permanent error (invalid workload, deterministic failure), a
// cancellation or an exhausted retry budget fails the whole dispatch.
func (d *coordDispatch) send(w *coordWorker, batch []*coordCell, attempt int) {
	defer d.wg.Done()
	s, c := d.s, d.s.coord
	err := fmt.Errorf("no healthy workers (%d configured)", len(c.workers))
	if w != nil {
		select {
		case w.sem <- struct{}{}:
		case <-d.ctx.Done():
			d.fail(d.ctx.Err())
			return
		}
		// The attempt spans open once the worker's in-flight slot is
		// held, so they time the dispatch, not the wait for a slot.
		for _, cl := range batch {
			cl.att = cl.span.Start("attempt")
			cl.att.SetAttr("attempt", strconv.Itoa(attempt+1))
			cl.att.SetAttr("worker", w.url)
			cl.delivered = false
		}
		err = s.coordRunOn(d, w, batch, attempt+1)
		<-w.sem
		if err == nil {
			return
		}
	}
	var left []*coordCell
	for _, cl := range batch {
		if cl.delivered {
			continue
		}
		if w != nil {
			cl.att.SetAttr("error", err.Error())
			cl.att.End()
		}
		left = append(left, cl)
	}
	if len(left) == 0 {
		return // every cell arrived before the failure
	}
	var pe *permanentError
	switch {
	case d.ctx.Err() != nil:
		d.fail(d.ctx.Err())
		return
	case errors.As(err, &pe):
		d.fail(fmt.Errorf("case %s: %w", left[0].key, pe.err))
		return
	}
	keys := batchKeys(left)
	url := ""
	if w != nil {
		url = w.url
	}
	d.j.logger().Warn("case attempt failed",
		"case_key", keys, "worker", url,
		"attempt", attempt+1, "max_attempts", c.retries+1, "error", err)
	if attempt >= c.retries {
		d.fail(fmt.Errorf("case %s: gave up after %d attempts: %w", keys, c.retries+1, err))
		return
	}
	s.metrics.caseRetries.Add(1)
	select {
	case <-time.After(min(c.backoff<<attempt, 5*time.Second)):
	case <-d.ctx.Done():
		d.fail(d.ctx.Err())
		return
	}
	d.scatter(left, attempt+1)
}

// fail records the dispatch's first error and cancels every batch still
// in flight.
func (d *coordDispatch) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
	d.cancel()
}

// take hands a cell's result to the executor, once: a batch delivers a
// cell on its case_done event, and again, ignored, on job_done.
func (d *coordDispatch) take(cl *coordCell, res *trainer.Result) {
	if cl.delivered {
		return
	}
	cl.delivered = true
	cl.att.End()
	d.deliver(cl.k, res)
}

// batchKeys names a batch's cells in log lines.
func batchKeys(batch []*coordCell) string {
	keys := make([]string, len(batch))
	for i, cl := range batch {
		keys[i] = cl.key
	}
	return strings.Join(keys, ",")
}

// markDown flags a worker unhealthy until the health loop restores it.
func (s *Server) markDown(w *coordWorker, keys string, attempt int, err error) {
	if w.healthy.CompareAndSwap(true, false) {
		s.log.Warn("coordinator: worker unhealthy",
			"worker", w.url, "case_key", keys, "attempt", attempt, "error", err)
	}
}

// coordRunOn runs one batch on one specific worker, whose in-flight slot
// the caller holds: submit over POST /v1/jobs, then follow GET
// /v1/jobs/{id}/events, taking each cell on its case_done event, to
// job_done, which carries every result and, when traced, the worker's
// spans. The error is wrapped permanent when retrying elsewhere cannot
// help.
func (s *Server) coordRunOn(d *coordDispatch, w *coordWorker, batch []*coordCell, attempt int) error {
	s.metrics.casesDispatched.Add(int64(len(batch)))
	keys := batchKeys(batch)
	id, err := s.coordSubmit(d, w, batch, keys, attempt)
	if err != nil {
		return err
	}
	done, err := s.coordAwait(d, w, id, batch, keys, attempt)
	if d.ctx.Err() != nil {
		// The coordinator-side job was cancelled (DELETE, drain, or a
		// failed sibling batch): release the worker promptly rather than
		// orphaning the run.
		s.coord.remoteCancel(w, id)
		return d.ctx.Err()
	}
	if err != nil {
		return err
	}
	return s.settle(d, w, batch, keys, attempt, done)
}

// coordSubmit POSTs one batch to a worker and returns the remote job's ID.
func (s *Server) coordSubmit(d *coordDispatch, w *coordWorker, batch []*coordCell, keys string, attempt int) (string, error) {
	jobs := make([]experiments.JobSpec, len(batch))
	for i, cl := range batch {
		jobs[i] = cl.job
	}
	o := d.j.opts
	body, err := json.Marshal(SubmitRequest{Jobs: jobs, Scale: o.Scale, Epochs: o.Epochs, Seed: o.Seed})
	if err != nil {
		return "", &permanentError{err}
	}
	req, err := http.NewRequestWithContext(d.ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if d.j.tracer != nil {
		// Propagate the trace across the hop: the worker continues this
		// trace ID and returns its spans on job_done for the graft.
		req.Header.Set("traceparent", obs.Traceparent(d.j.tracer.TraceID(), batch[0].att.ID()))
	}
	resp, err := s.coord.client.Do(req)
	if err != nil {
		s.markDown(w, keys, attempt, err)
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
		s.markDown(w, keys, attempt, fmt.Errorf("submit: HTTP %d", resp.StatusCode))
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

// remoteEvent is what the coordinator reads of a worker's event stream:
// the fields of its case_done lines and of its closing job_done line.
// job_done's results stay raw: only the cells no case_done delivered are
// decoded.
type remoteEvent struct {
	Type    string            `json:"type"`
	Status  Status            `json:"status"`
	Error   string            `json:"error"`
	Index   int               `json:"index"`
	Result  *trainer.Result   `json:"result"`
	Results []json.RawMessage `json:"results"`
	Spans   []obs.SpanRecord  `json:"spans"`
}

// coordAwait follows a remote batch's event stream to its job_done line,
// taking each cell as its case_done arrives, then reads the stream to its
// end so the connection returns to the pool. A stream that breaks before
// job_done means the worker died under the batch: it is marked down and
// the cells not yet taken re-route. A 404 — a restarted worker that forgot
// the job — is transient.
func (s *Server) coordAwait(d *coordDispatch, w *coordWorker, id string, batch []*coordCell, keys string, attempt int) (*remoteEvent, error) {
	req, err := http.NewRequestWithContext(d.ctx, http.MethodGet, w.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, &permanentError{err}
	}
	resp, err := s.coord.client.Do(req)
	if err != nil {
		if d.ctx.Err() == nil {
			s.markDown(w, keys, attempt, err)
		}
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		err := fmt.Errorf("events: %s: HTTP %d: %s", w.url, resp.StatusCode, firstLine(rb))
		if resp.StatusCode >= 500 {
			s.markDown(w, keys, attempt, err)
		}
		return nil, err
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, 64<<20))
	for {
		var ev remoteEvent
		if err := dec.Decode(&ev); err != nil {
			err = fmt.Errorf("events: %s: stream ended before job_done: %w", w.url, err)
			if d.ctx.Err() == nil {
				s.markDown(w, keys, attempt, err)
			}
			return nil, err
		}
		switch {
		case ev.Type == "case_done" && ev.Result != nil && ev.Index >= 0 && ev.Index < len(batch):
			d.take(batch[ev.Index], ev.Result)
		case ev.Type == "job_done":
			io.Copy(io.Discard, resp.Body)
			return &ev, nil
		}
	}
}

// settle classifies a remote batch's terminal answer: a completed batch
// delivers every result not yet taken, and its worker's trace is grafted
// cell by cell; a captured panic marks the worker down and re-routes; any
// other failure is permanent; a cancel under the batch (a drain, an
// operator) re-routes.
func (s *Server) settle(d *coordDispatch, w *coordWorker, batch []*coordCell, keys string, attempt int, done *remoteEvent) error {
	switch done.Status {
	case StatusCompleted:
		if len(done.Results) != len(batch) {
			return fmt.Errorf("%s: completed with %d results for %d jobs", w.url, len(done.Results), len(batch))
		}
		for i, cl := range batch {
			if cl.delivered {
				continue
			}
			var res *trainer.Result
			if err := json.Unmarshal(done.Results[i], &res); err != nil || res == nil {
				return fmt.Errorf("%s: completed without a result for job %d (%v)", w.url, i, err)
			}
			d.take(cl, res)
		}
		// Merge the worker's span tree into the sweep's: each cell's part
		// of it goes under that cell's attempt, so the distributed sweep
		// reads as one trace.
		if traces := cellTraces(done.Spans, len(batch)); traces != nil {
			for i, cl := range batch {
				cl.att.Graft(traces[i])
			}
		}
		return nil
	case StatusFailed:
		if strings.Contains(done.Error, "panic") {
			// The worker's panic isolation captured a crash; the workload is
			// deterministic, but a crashing worker is suspect — re-route.
			s.markDown(w, keys, attempt, fmt.Errorf("remote panic: %s", done.Error))
			return fmt.Errorf("remote panic on %s: %s", w.url, done.Error)
		}
		return &permanentError{fmt.Errorf("remote failure: %s", done.Error)}
	case StatusCancelled:
		return fmt.Errorf("remote job cancelled on %s", w.url)
	}
	return fmt.Errorf("%s: job_done with status %q", w.url, done.Status)
}

// cellTraces splits a batch's span records into one trace per cell: the
// cell's case span with everything under it, beneath copies of the spans
// that enclose it (the remote job's root and run spans), clipped to the
// case span's interval. The copies nest inside the cell's attempt span,
// which ends on the cell's case_done, and an attempt's duration less its
// job's is the cell's time outside its own simulation. The worker's
// executor opens one case span per cell, in index order, so the k-th case
// span under the run span, in creation order, is cell k's. Records that
// do not have that shape graft nothing.
func cellTraces(recs []obs.SpanRecord, n int) [][]obs.SpanRecord {
	var root, run *obs.SpanRecord
	out := make([][]obs.SpanRecord, 0, n)
	owner := map[int64]int{} // span -> the cell whose case span encloses it
	for i := range recs {
		r := &recs[i]
		switch {
		case root == nil && r.Parent == 0 && r.Name == "job":
			root = r
		case root != nil && run == nil && r.Parent == root.ID && r.Name == "run":
			run = r
		case run != nil && r.Parent == run.ID && r.Name == "case":
			owner[r.ID] = len(out)
			croot, crun := *root, *run
			croot.StartUS, croot.DurUS = r.StartUS, r.DurUS
			crun.StartUS, crun.DurUS = r.StartUS, r.DurUS
			out = append(out, []obs.SpanRecord{croot, crun, *r})
		default:
			if k, ok := owner[r.Parent]; ok {
				owner[r.ID] = k
				out[k] = append(out[k], *r)
			}
		}
	}
	if len(out) != n {
		return nil
	}
	return out
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
