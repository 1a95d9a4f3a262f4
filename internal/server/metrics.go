// Service counters, exposed in Prometheus text exposition format on
// /metrics. Everything is a plain atomic — no dependency on a metrics
// library — and every counter is bumped at exactly one transition point, so
// at any quiescent moment
//
//	submitted_total = queued + running + completed_total + failed_total + cancelled_total
//
// and the by-status totals match the jobs that reached each state (the
// store itself retains at most Config.MaxRecords finished records;
// counters keep counting past eviction).
package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"datastall/internal/memo"
	"datastall/internal/obs"
)

type metrics struct {
	// Counters.
	submitted     atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	cancelled     atomic.Int64
	events        atomic.Int64 // observer events published to job streams
	eventsDropped atomic.Int64 // events lost to slow-subscriber overflow
	queries       atomic.Int64 // queries served by /v1/query
	queryRows     atomic.Int64 // rows streamed by /v1/query

	// Coordinator-mode counters (zero on a plain worker).
	casesDispatched atomic.Int64 // case attempts shipped to fleet workers
	caseRetries     atomic.Int64 // case attempts beyond each case's first
	quotaRejected   atomic.Int64 // submissions refused by the tenant quota

	// Durability counters (zero without -wal).
	persistLoadErrors atomic.Int64 // corrupt WAL records skipped at load
	walAppends        atomic.Int64 // records appended to the WAL
	walCompactions    atomic.Int64 // checkpoint compactions completed
	walResumed        atomic.Int64 // interrupted jobs re-enqueued at startup
	walResumedCases   atomic.Int64 // grid cells served from recovered results

	// Gauges.
	queued      atomic.Int64
	running     atomic.Int64
	subscribers atomic.Int64 // live /events streams

	// Latency histograms (fixed-bucket, dependency-free — internal/obs).
	queueWait  *obs.Histogram // submission -> worker pickup
	caseSecs   *obs.Histogram // one grid case, local simulate or remote round trip
	memoLookup *obs.Histogram // one memo cache lookup (memory or disk)
	walFsync   *obs.Histogram // one WAL data fsync
	walCompact *obs.Histogram // one WAL compaction
}

// newMetrics builds the metrics set with its histogram buckets. Bucket
// bounds are seconds; they are part of the README's documented contract
// (the observability drift test reads them off /metrics).
func newMetrics() *metrics {
	return &metrics{
		queueWait: obs.NewHistogram("stallserved_queue_wait_seconds",
			"Time jobs waited in the scheduler queue before a worker picked them up.",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}),
		caseSecs: obs.NewHistogram("stallserved_case_seconds",
			"Wall time per grid case: local simulate, memo hit, or remote round trip.",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}),
		memoLookup: obs.NewHistogram("stallserved_memo_lookup_seconds",
			"Latency of result memo cache lookups (memory or disk).",
			[]float64{0.00001, 0.0001, 0.001, 0.01, 0.1}),
		walFsync: obs.NewHistogram("stallserved_wal_fsync_seconds",
			"Latency of write-ahead-log data fsyncs.",
			[]float64{0.0001, 0.001, 0.005, 0.01, 0.05, 0.1}),
		walCompact: obs.NewHistogram("stallserved_wal_compact_seconds",
			"Duration of write-ahead-log compactions into a checkpoint.",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}),
	}
}

// writeProm renders the metrics in Prometheus text format. queueDepth is
// sampled from the scheduler's channel at render time; workersHealthy and
// workersTotal from the coordinator's fleet (total 0: not a coordinator,
// fleet gauges omitted); ms from the result memo cache (nil: -memo unset,
// memo series omitted — the memo counters live in the Cache itself, the
// single source shared with runsuite, not in this struct).
func (m *metrics) writeProm(w io.Writer, queueDepth, workersHealthy, workersTotal int, ms *memo.Stats) {
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c("stallserved_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", m.submitted.Load())
	c("stallserved_jobs_completed_total", "Jobs that finished with a result.", m.completed.Load())
	c("stallserved_jobs_failed_total", "Jobs that returned an error or panicked.", m.failed.Load())
	c("stallserved_jobs_cancelled_total", "Jobs cancelled by DELETE or server drain.", m.cancelled.Load())
	c("stallserved_events_published_total", "Observer events published to job event streams.", m.events.Load())
	c("stallserved_events_dropped_total", "Events dropped on slow /events subscribers.", m.eventsDropped.Load())
	c("stallserved_queries_total", "Queries executed by /v1/query.", m.queries.Load())
	c("stallserved_query_rows_total", "Result rows streamed by /v1/query.", m.queryRows.Load())
	c("stallserved_cases_dispatched_total", "Case attempts dispatched to fleet workers (coordinator mode).", m.casesDispatched.Load())
	c("stallserved_case_retries_total", "Case attempts beyond each case's first (coordinator mode).", m.caseRetries.Load())
	c("stallserved_jobs_quota_rejected_total", "Submissions refused by the per-tenant quota.", m.quotaRejected.Load())
	c("stallserved_persist_load_errors_total", "Corrupt or unusable WAL records skipped at load.", m.persistLoadErrors.Load())
	c("stallserved_wal_appends_total", "Records appended to the write-ahead log.", m.walAppends.Load())
	c("stallserved_wal_compactions_total", "WAL compactions folded into a checkpoint.", m.walCompactions.Load())
	c("stallserved_wal_resumed_jobs_total", "Interrupted jobs re-enqueued from the WAL at startup.", m.walResumed.Load())
	c("stallserved_wal_resumed_cases_total", "Grid cells served from WAL-recovered results instead of re-running.", m.walResumedCases.Load())
	g("stallserved_jobs_queued", "Jobs waiting for a worker.", m.queued.Load())
	g("stallserved_jobs_running", "Jobs currently executing.", m.running.Load())
	g("stallserved_queue_depth", "Jobs buffered in the scheduler queue.", int64(queueDepth))
	g("stallserved_event_subscribers", "Live /events streams.", m.subscribers.Load())
	if workersTotal > 0 {
		g("stallserved_fleet_workers", "Configured fleet workers (coordinator mode).", int64(workersTotal))
		g("stallserved_fleet_workers_healthy", "Fleet workers currently healthy (coordinator mode).", int64(workersHealthy))
	}
	if ms != nil {
		c("stallserved_memo_hits_total", "Cases served from the result memo cache instead of simulating.", ms.Hits)
		c("stallserved_memo_misses_total", "Cases simulated because the memo cache had no entry.", ms.Misses)
		c("stallserved_memo_bytes_total", "Bytes of memo entries written to disk.", ms.BytesWritten)
		c("stallserved_memo_evictions_total", "Memo entries evicted to stay within -memo-max-bytes.", ms.Evictions)
		c("stallserved_memo_load_errors_total", "Corrupt or mismatched memo entries skipped and treated as misses.", ms.LoadErrors)
		g("stallserved_memo_entries", "Memo entries resident in memory.", int64(ms.Entries))
		g("stallserved_memo_disk_entries", "Memo entries persisted on disk.", int64(ms.DiskEntries))
		g("stallserved_memo_disk_bytes", "Bytes of memo entries persisted on disk.", ms.DiskBytes)
	}
	m.queueWait.WriteProm(w)
	m.caseSecs.WriteProm(w)
	m.memoLookup.WriteProm(w)
	m.walFsync.WriteProm(w)
	m.walCompact.WriteProm(w)
}
