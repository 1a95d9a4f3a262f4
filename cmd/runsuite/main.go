// Command runsuite runs the full experiment suite (or a subset) across a
// bounded worker pool and emits paper-style tables, a machine-readable JSON
// report, or EXPERIMENTS.md:
//
//	runsuite                         # every experiment, one worker per CPU
//	runsuite -ids fig2,fig5,table6   # a subset
//	runsuite -ids fig16              # one experiment
//	runsuite -parallel 8 -json > suite.json
//	runsuite -md EXPERIMENTS.md      # regenerate the experiments index
//	runsuite -json -md EXPERIMENTS.md > suite.json   # both from one run
//	runsuite -spec testdata/specs/cache-sweep.json   # a user scenario
//
// Results are collected concurrently but emitted in experiment ID order, so
// for a given -seed the output is byte-identical for any -parallel (add
// -timings to include wall-clock data in the JSON report). One failing
// experiment is reported without aborting the rest; the exit status is
// non-zero if any experiment failed or was skipped on -timeout.
//
// -spec runs a declarative scenario file — a JSON sweep description (base
// job + parameter axes + derived columns) that exists nowhere in compiled
// code — through the same machinery as the registry's sweep figures; add
// -progress to stream per-epoch events of every underlying training run to
// stderr. SIGINT cancels whatever is running (suite or scenario) cleanly
// through its context.
//
// -query runs a JSON relational query (internal/query) over the captured
// training runs and streams the result as NDJSON on stdout:
//
//	runsuite -spec spec.json -query q.json     # query a just-ran scenario
//	runsuite -ids fig18 -query q.json          # query a just-ran suite subset
//	runsuite -json -cases > suite.json         # save a queryable report ...
//	runsuite -report suite.json -query q.json  # ... and query it offline
//
// With -query, stdout carries only the NDJSON rows (tables are skipped), so
// the output pipes straight into jq or diff.
//
// -memo points both paths at a persisted content-addressed result cache
// (the same on-disk layout `stallserved -memo` serves from): every
// spec-driven case already simulated — in an earlier run, by the daemon,
// or by an overlapping sweep — is replayed byte-identically instead of
// re-simulated, making repeated and overlapping sweeps sublinear:
//
//	runsuite -ids fig5,fig9a,fig18 -memo ./memocache   # cold: simulates
//	runsuite -ids fig5,fig9a,fig18 -memo ./memocache   # warm: replays
//
// -cpuprofile/-memprofile write pprof profiles of whatever work the other
// flags select; `make profile` profiles one serial full-suite run:
//
//	runsuite -parallel 1 -q -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datastall"
	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/query"
	"datastall/internal/trainer"
)

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list available experiments and exit")
	ids := flag.String("ids", "", "comma-separated experiment ids (default: all)")
	scale := flag.Float64("scale", 0, "dataset scale (0 = per-experiment default)")
	epochs := flag.Int("epochs", 0, "epochs per training run (0 = default 3)")
	seed := flag.Int64("seed", 0, "simulation seed (0 = default 1)")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = one per CPU)")
	jsonOut := flag.Bool("json", false, "emit the JSON suite report on stdout")
	timings := flag.Bool("timings", false, "include wall-clock timings in the JSON report (breaks byte-for-byte reproducibility)")
	mdOut := flag.String("md", "", "write the suite as markdown (EXPERIMENTS.md) to this file")
	timeout := flag.Duration("timeout", 0, "overall suite deadline, e.g. 10m (0 = none)")
	quiet := flag.Bool("q", false, "suppress per-experiment progress on stderr")
	specFile := flag.String("spec", "", "run a declarative JSON scenario spec from this file")
	progress := flag.Bool("progress", false, "with -spec: stream per-epoch training progress to stderr")
	queryFile := flag.String("query", "", "run a JSON query over the captured training runs; NDJSON on stdout")
	reportFile := flag.String("report", "", "with -query: query a saved suite report (written with -json -cases) instead of running anything")
	withCases := flag.Bool("cases", false, "with -json: embed the per-case capture, making the report queryable via -report")
	memoDir := flag.String("memo", "", "content-addressed result cache directory (shared with stallserved -memo): cases already simulated are replayed byte-identically instead of re-run (empty = off)")
	memoMax := flag.Int64("memo-max-bytes", 0, "memo cache budget in bytes, enforced on disk and in memory, at insert and at open (0 = 256 MiB)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the run to this path (viewable in Perfetto / chrome://tracing)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// SIGINT/SIGTERM cancel the context; the simulations poll it, so an
	// interrupted run dies cleanly (profiles still flush via the defers).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
			}
		}()
	}

	if *list {
		fmt.Printf("%-18s %s\n", "ID", "TITLE")
		for _, e := range datastall.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}
	// -query claims stdout for NDJSON; -json claims it for the report. The
	// combination would interleave two formats, so refuse it (save the
	// report with -json -cases first, then -report it).
	if *queryFile != "" && *jsonOut {
		fmt.Fprintln(os.Stderr, "runsuite: -query and -json both write stdout; run them separately (-json -cases saves a -report-able file)")
		return 2
	}
	if *withCases && !*jsonOut {
		fmt.Fprintln(os.Stderr, "runsuite: -cases only applies to the -json report")
		return 2
	}
	if *reportFile != "" {
		if *queryFile == "" {
			fmt.Fprintln(os.Stderr, "runsuite: -report requires -query (it selects what to query, not what to run)")
			return 2
		}
		if *specFile != "" {
			fmt.Fprintln(os.Stderr, "runsuite: -report and -spec are two different case sources; pick one")
			return 2
		}
		return queryReportFile(ctx, *reportFile, *queryFile)
	}
	// The memo cache serves both execution paths (-spec and the suite);
	// the summary line tells the user how much the cache actually saved.
	var cache *datastall.ResultCache
	if *memoDir != "" {
		c, err := datastall.OpenResultCache(*memoDir, *memoMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
			return 1
		}
		cache = c
	}
	// With -trace, every case span of the run hangs off one root span and
	// the whole tree is written as Chrome trace-event JSON on exit.
	var tracer *obs.Tracer
	var root obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer("runsuite", "")
		root = tracer.Start("suite")
	}
	memoStats := func() {
		if cache == nil {
			return
		}
		st := cache.Stats()
		logger.Info("memo summary",
			"hits", st.Hits, "misses", st.Misses,
			"evictions", st.Evictions, "load_errors", st.LoadErrors)
		root.SetAttr("memo_hits", strconv.FormatInt(st.Hits, 10))
		root.SetAttr("memo_misses", strconv.FormatInt(st.Misses, 10))
	}
	writeTrace := func() {
		if tracer == nil {
			return
		}
		tracer.Finish()
		f, err := os.Create(*traceOut)
		if err != nil {
			logger.Warn("trace not written", "error", err)
			return
		}
		werr := tracer.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			logger.Warn("trace not written", "path", *traceOut, "error", werr)
			return
		}
		logger.Info("trace written", "path", *traceOut)
	}
	if *specFile != "" {
		// The suite-only flags do nothing on the -spec path; silently
		// accepting them would hand back the wrong output format (-json,
		// -md) or drop a requested deadline (-timeout). Refuse instead.
		if bad := suiteOnlyFlagsSet(); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "runsuite: -%s cannot be combined with -spec\n",
				strings.Join(bad, ", -"))
			return 2
		}
		code := runSpecFile(ctx, *specFile, *scale, *epochs, *seed, cache, *progress, *queryFile, root)
		memoStats()
		writeTrace()
		return code
	}
	if *progress {
		fmt.Fprintln(os.Stderr, "runsuite: -progress applies to -spec runs; ignored")
	}

	opts := datastall.SuiteOptions{
		Scale: *scale, Epochs: *epochs, Seed: *seed,
		Parallel: *parallel, Timeout: *timeout, Memo: cache,
	}
	if *ids != "" {
		opts.IDs = strings.Split(*ids, ",")
		for i := range opts.IDs {
			opts.IDs[i] = strings.TrimSpace(opts.IDs[i])
		}
	}
	opts.Progress = func(e datastall.SuiteExperiment) {
		ev := root.Event("experiment")
		ev.SetAttr("id", e.ID)
		ev.SetAttr("status", e.Status)
		if *quiet {
			return
		}
		switch e.Status {
		case "ok":
			fmt.Fprintf(os.Stderr, "runsuite: %-18s ok     (%.2fs)\n", e.ID, e.WallSeconds)
		case "error":
			fmt.Fprintf(os.Stderr, "runsuite: %-18s FAILED (%.2fs): %v\n", e.ID, e.WallSeconds, e.Err)
		}
	}

	start := time.Now()
	rep, err := datastall.RunSuite(ctx, opts)
	if err != nil && rep == nil {
		fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
	}

	// -md composes with -json (or text): one suite run can emit both.
	if *mdOut != "" {
		if werr := os.WriteFile(*mdOut, []byte(rep.Markdown()), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "runsuite: wrote %s\n", *mdOut)
	}
	switch {
	case *queryFile != "":
		// Round-trip through the report's wire form: the same path a saved
		// -report file takes, so on-line and off-line queries see identical
		// cases.
		b, jerr := rep.JSONWith(false, true)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", jerr)
			return 1
		}
		cases, cerr := experiments.LoadSuiteCases(b)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", cerr)
			return 1
		}
		if code := runQueryNDJSON(ctx, *queryFile, cases); code != 0 {
			return code
		}
	case *jsonOut:
		b, jerr := rep.JSONWith(*timings, *withCases)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", jerr)
			return 1
		}
		fmt.Printf("%s\n", b)
	case *mdOut != "":
		// Markdown already written; no stdout report.
	default:
		for _, e := range rep.Experiments {
			fmt.Printf("%s\n", e)
		}
	}

	memoStats()
	writeTrace()
	fmt.Fprintf(os.Stderr, "runsuite: %d ok, %d failed, %d skipped on %d worker(s) in %.2fs\n",
		rep.OK, rep.Failed, rep.Skipped, rep.Parallel, time.Since(start).Seconds())
	if rep.Failed > 0 || rep.Skipped > 0 {
		return 1
	}
	return 0
}

// suiteOnlyFlagsSet reports which explicitly-set flags have no meaning on
// the -spec path.
func suiteOnlyFlagsSet() []string {
	suiteOnly := map[string]bool{
		"ids": true, "parallel": true, "json": true, "timings": true,
		"md": true, "timeout": true, "q": true,
	}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if suiteOnly[f.Name] {
			bad = append(bad, f.Name)
		}
	})
	return bad
}

// runSpecFile loads and executes one declarative scenario spec. The
// scenario runs through the same Spec machinery as the registry's
// sweep-shaped figures; withProgress attaches a console observer so every
// underlying training run streams per-epoch events to stderr.
func runSpecFile(ctx context.Context, path string, scale float64, epochs int, seed int64, cache *datastall.ResultCache, withProgress bool, queryFile string, trace obs.Span) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
		return 1
	}
	sp, err := experiments.LoadSpec(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", path, err)
		return 1
	}
	// Spec-pinned fields win over the Options the flags feed (a spec is a
	// reproducible scenario); warn when an explicitly-passed flag is about
	// to be shadowed so the user isn't misled about what actually ran.
	shadowed := map[string]bool{
		"scale":  sp.Base.Scale != 0,
		"epochs": sp.Base.Epochs != 0,
		"seed":   sp.Base.Seed != 0,
	}
	flag.Visit(func(f *flag.Flag) {
		if shadowed[f.Name] {
			fmt.Fprintf(os.Stderr, "runsuite: -%s %s ignored: the spec pins %s in its base\n",
				f.Name, f.Value, f.Name)
		}
	})
	var observers []trainer.Observer
	if withProgress {
		observers = append(observers, trainer.NewConsoleObserver(os.Stderr))
	}
	start := time.Now()
	rep, err := experiments.RunSpec(ctx, sp,
		experiments.Options{Scale: scale, Epochs: epochs, Seed: seed, Memo: cache, Trace: trace}, observers...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: spec %s: %v\n", sp.Name, err)
		return 1
	}
	if queryFile != "" {
		// -query owns stdout: the scenario's table would corrupt the NDJSON
		// stream, so it is skipped (run without -query to see it).
		if code := runQueryNDJSON(ctx, queryFile, rep.Cases); code != 0 {
			return code
		}
	} else {
		fmt.Printf("== %s: %s ==\n%s", sp.Name, sp.Title, rep.Table.String())
		if rep.Notes != "" {
			fmt.Printf("notes: %s\n", rep.Notes)
		}
	}
	fmt.Fprintf(os.Stderr, "runsuite: spec %s done in %.2fs\n", sp.Name, time.Since(start).Seconds())
	return 0
}

// queryReportFile queries a saved suite report (-json -cases) offline: no
// simulation runs, the saved per-case capture is the data source.
func queryReportFile(ctx context.Context, reportPath, queryPath string) int {
	data, err := os.ReadFile(reportPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
		return 1
	}
	cases, err := experiments.LoadSuiteCases(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", reportPath, err)
		return 1
	}
	return runQueryNDJSON(ctx, queryPath, cases)
}

// runQueryNDJSON executes the query file over the cases and streams the
// result rows as NDJSON on stdout.
func runQueryNDJSON(ctx context.Context, queryPath string, cases []*experiments.CaseResult) int {
	src, err := os.ReadFile(queryPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
		return 1
	}
	q, err := query.ParseQuery(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", queryPath, err)
		return 1
	}
	st := query.NewStore()
	st.AddCases(cases)
	rows, err := query.New(st).Run(ctx, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", queryPath, err)
		return 1
	}
	if _, err := query.WriteNDJSON(os.Stdout, rows); err != nil {
		fmt.Fprintf(os.Stderr, "runsuite: query: %v\n", err)
		return 1
	}
	return 0
}
