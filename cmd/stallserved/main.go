// Command stallserved serves datastall simulations as an HTTP job service:
// clients POST declarative scenario specs (or single training jobs) to
// /v1/jobs, poll or stream their progress, and cancel them; built-in paper
// specs are runnable by name.
//
//	stallserved -addr :8080
//	stallserved -addr :8080 -workers 4 -queue 128 -wal ./wal
//
//	curl -X POST localhost:8080/v1/jobs -d '{"spec_name": "fig5"}'
//	curl localhost:8080/v1/jobs/job-000001
//	curl -N localhost:8080/v1/jobs/job-000001/events
//	curl -X DELETE localhost:8080/v1/jobs/job-000001
//	curl localhost:8080/metrics
//
// With -coordinator, the instance executes nothing locally: it shards each
// spec's case grid across a fleet of ordinary stallserved workers (and
// forwards single jobs whole), gathering a result byte-identical to a
// single-node run. -workers then takes the fleet's URLs:
//
//	stallserved -addr :8081 &
//	stallserved -addr :8082 &
//	stallserved -addr :8080 -coordinator -workers http://localhost:8081,http://localhost:8082
//
// SIGTERM/SIGINT begin a graceful drain: the listener stops accepting, new
// submissions get 503, and queued/running jobs are given -drain to finish
// before being cancelled through their contexts.
//
// With -wal, the whole job lifecycle is logged to a crash-safe write-ahead
// log: after a kill -9, a restart replays the clean prefix, serves finished
// jobs, and resumes interrupted sweeps from their last logged case — the
// assembled report is byte-identical to an uninterrupted run. -fsync picks
// the durability point (always/interval/never); the log compacts into a
// checkpoint every -wal-compact terminal jobs.
//
//	stallserved -addr :8080 -wal ./wal -fsync always
//
// With -memo, every case result is memoized in a content-addressed,
// crash-atomically written cache directory (the same layout `runsuite
// -memo` uses, so the CLI and the daemon can share one directory):
// resubmitting a spec whose cases were already simulated serves every cell
// from the cache, byte-identical, re-simulating nothing.
//
//	stallserved -addr :8080 -memo ./memocache
//
// Every job carries an end-to-end trace, served as Chrome trace-event JSON
// (Perfetto-viewable) at GET /v1/jobs/{id}/trace and — with -trace-dir —
// dumped to disk when the job finishes. Logs are structured (log/slog) with
// job_id/trace_id/case_key fields, /metrics adds latency histograms, and
// -debug-addr serves net/http/pprof on a separate listener so profiling is
// never exposed on the public API address:
//
//	stallserved -addr :8080 -trace-dir ./traces -debug-addr localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datastall/internal/server"
	"datastall/internal/wal"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.String("workers", "", "worker pool size (default one per CPU); with -coordinator, comma-separated worker base URLs instead")
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator: shard specs across the stallserved workers named by -workers")
	inflight := flag.Int("inflight", 4, "coordinator: concurrently dispatched batches per worker, each run one cell after another")
	retries := flag.Int("retries", 3, "coordinator: re-route attempts per case beyond the first")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "coordinator: first re-route delay, doubling per attempt")
	tenantQuota := flag.Int("tenant-quota", 0, "max queued+running jobs per X-Tenant header (0 = unlimited)")
	queue := flag.Int("queue", 64, "bounded submission queue depth (full queue rejects with 503)")
	subBuf := flag.Int("subbuf", 256, "per-subscriber event ring size on /events streams")
	walDir := flag.String("wal", "", "write-ahead-log directory: crash-safe job lifecycle log with restart resume (empty = off)")
	fsyncMode := flag.String("fsync", "always", "WAL durability: always (fsync per append), interval, or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "fsync period under -fsync interval")
	walSegment := flag.Int64("wal-segment", 4<<20, "WAL segment size in bytes before rotation")
	walCompact := flag.Int("wal-compact", 64, "compact the WAL into a checkpoint every N terminal jobs")
	maxRecords := flag.Int("maxrecords", 4096, "finished job records retained in memory (oldest evicted beyond this)")
	memoDir := flag.String("memo", "", "content-addressed result cache directory: cases already simulated (by any job, process, or runsuite -memo) are served byte-identically from the cache (empty = off)")
	memoMax := flag.Int64("memo-max-bytes", 0, "memo cache budget in bytes, enforced on disk and in memory, at insert and at startup (0 = 256 MiB)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM before in-flight jobs are cancelled")
	traceDir := flag.String("trace-dir", "", "directory for per-job Chrome trace-event JSON dumps, written when each job finishes (empty = traces served over HTTP only)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = off)")
	quiet := flag.Bool("q", false, "log warnings and errors only")
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	fsyncPolicy, err := wal.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		logger.Error(err.Error())
		return 2
	}
	if point := wal.ArmCrashFromEnv(); point != "" {
		logger.Warn("wal: crash injection armed (STALLWAL_CRASH)", "point", point)
	}

	cfg := server.Config{
		QueueDepth: *queue, SubscriberBuffer: *subBuf,
		MaxRecords: *maxRecords, Log: logger,
		TenantQuota: *tenantQuota, TraceDir: *traceDir,
		WALDir: *walDir, WALFsync: fsyncPolicy, WALFsyncInterval: *fsyncInterval,
		WALSegmentBytes: *walSegment, WALCompactEvery: *walCompact,
		MemoDir: *memoDir, MemoMaxBytes: *memoMax,
	}
	if *coordinator {
		if *workers == "" {
			logger.Error("-coordinator needs -workers http://w1,http://w2,...")
			return 2
		}
		cfg.WorkerURLs = strings.Split(*workers, ",")
		cfg.WorkerInflight = *inflight
		cfg.CaseRetries = *retries
		cfg.RetryBackoff = *backoff
		probeFleet(logger, cfg.WorkerURLs)
	} else if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil {
			logger.Error("-workers wants a pool size (or add -coordinator for worker URLs)", "workers", *workers)
			return 2
		}
		cfg.Workers = n
	}

	srv, err := server.New(cfg)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}

	if *debugAddr != "" {
		// pprof on its own listener so profiling endpoints are never exposed
		// on the public API address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Warn("pprof listener failed", "error", err)
			}
		}()
	}

	// No global Write/ReadTimeout — /events streams are long-lived — but
	// slow-header and idle connections must not pin goroutines forever.
	httpSrv := &http.Server{
		Addr: *addr, Handler: srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *coordinator {
		logger.Info("listening (coordinator)", "addr", *addr, "fleet_workers", len(cfg.WorkerURLs), "queue", *queue)
	} else {
		logger.Info("listening", "addr", *addr, "workers", srv.Workers(), "queue", *queue)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error(err.Error())
		srv.Close()
		return 1
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "budget", drain.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so no new work arrives, then drain the
	// scheduler; both share the drain budget.
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if srv.Drain(ctx) {
		logger.Info("drained cleanly")
	} else {
		logger.Warn("drain budget exhausted; in-flight jobs cancelled")
	}
	fmt.Fprintln(os.Stderr, "stallserved: bye")
	return 0
}

// probeFleet checks each worker's /healthz once at boot — purely advisory:
// an unreachable worker is reported and left to the coordinator's
// background probe, which keeps retrying and routes around it meanwhile.
func probeFleet(logger *slog.Logger, urls []string) {
	client := &http.Client{Timeout: 2 * time.Second}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		resp, err := client.Get(u + "/healthz")
		if err != nil {
			logger.Warn("fleet: worker unreachable; will keep probing", "worker", u, "error", err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			logger.Warn("fleet: worker /healthz not OK; will keep probing", "worker", u, "status", resp.StatusCode)
			continue
		}
		logger.Info("fleet: worker healthy", "worker", u)
	}
}
