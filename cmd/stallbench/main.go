// Command stallbench reproduces the paper's tables and figures, and
// benchmarks the simulator and loader hot paths.
//
//	stallbench -list
//	stallbench -run fig2
//	stallbench -run all -parallel 8 -scale 0.01 > results.txt
//	stallbench -bench -bench-out BENCH_1.json
//	stallbench -run all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each experiment prints a paper-style table plus the published result it
// reproduces; -scale trades fidelity margin for runtime (1.0 = paper-sized
// datasets). With -run all the suite fans out across -parallel workers via
// the shared orchestrator; output stays in experiment ID order (and is
// byte-identical for any -parallel at a given -seed), with per-experiment
// wall clocks reported on stderr.
//
// -bench measures the concurrent data-loading pipeline on the host (real
// goroutines, not the simulator): sharded vs single-mutex cache lookup
// throughput and pipeline epoch wall time at 1/2/4/8 workers, written as
// JSON to -bench-out (BENCH_1.json in the perf trajectory).
//
// The job service, the coordinator and the memo cache are measured by the
// repository benchmark instead: bash bench/run.sh --workload serve-jobs
// (or coord-sweep, sweep-memo).
//
// -cpuprofile/-memprofile write pprof profiles of whatever work the other
// flags select — the profiling workflow behind every hot-path PR
// (`make profile` bundles the common invocation).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"datastall"
)

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list available experiments")
	runID := flag.String("run", "", "experiment id to run, or 'all'")
	scale := flag.Float64("scale", 0, "dataset scale (0 = per-experiment default)")
	epochs := flag.Int("epochs", 0, "epochs per training run (0 = default 3)")
	seed := flag.Int64("seed", 0, "simulation seed")
	parallel := flag.Int("parallel", 0, "workers for -run all (0 = one per CPU)")
	bench := flag.Bool("bench", false, "benchmark the concurrent loader backend")
	benchOut := flag.String("bench-out", "BENCH_1.json", "output file for -bench results")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; the simulations poll it, so an
	// interrupted run dies cleanly (profiles still flush via the defers).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		fmt.Printf("%-18s %s\n", "ID", "TITLE")
		for _, e := range datastall.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
			fmt.Printf("%-18s   paper: %s\n", "", e.Paper)
		}
		return 0
	case *bench:
		return runBench(*benchOut)
	case *runID == "all":
		return runAll(ctx, *scale, *epochs, *seed, *parallel)
	case *runID != "":
		return runOne(ctx, *runID, *scale, *epochs, *seed)
	default:
		flag.Usage()
		return 2
	}
}

// runAll fans the whole registry across the suite orchestrator.
func runAll(ctx context.Context, scale float64, epochs int, seed int64, parallel int) int {
	rep, err := datastall.RunSuite(ctx, datastall.SuiteOptions{
		Scale: scale, Epochs: epochs, Seed: seed, Parallel: parallel,
		Progress: func(e datastall.SuiteExperiment) {
			fmt.Fprintf(os.Stderr, "stallbench: %-18s %-6s (%.2fs)\n", e.ID, e.Status, e.WallSeconds)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
		return 1
	}
	for _, e := range rep.Experiments {
		fmt.Printf("%s\n", e)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func runOne(ctx context.Context, id string, scale float64, epochs int, seed int64) int {
	start := time.Now()
	rep, err := datastall.RunExperiment(ctx, id, datastall.ExperimentOptions{
		Scale: scale, Epochs: epochs, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", rep)
	fmt.Fprintf(os.Stderr, "stallbench: %s done in %.2fs\n", id, time.Since(start).Seconds())
	return 0
}
