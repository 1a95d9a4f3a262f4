package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"datastall/internal/cache"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/stats"
)

// benchReport is the BENCH_*.json schema: one record per PR that touches the
// hot path, so the numbers form a trajectory. Throughputs are host-dependent
// — NumCPU/GOMAXPROCS are recorded so runs are comparable.
type benchReport struct {
	Bench      string        `json:"bench"`
	Items      int           `json:"items"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"go_max_procs"`
	GoVersion  string        `json:"go_version"`
	Lookup     []lookupPoint `json:"lookup_throughput"`
	Epoch      []epochPoint  `json:"epoch_walltime"`
	// SpeedupAt8 is sharded/single-mutex lookup throughput at 8 workers
	// (the PR acceptance metric; needs >= 4 CPUs to exceed ~1x).
	SpeedupAt8 float64 `json:"speedup_sharded_vs_mutex_8w"`
}

type lookupPoint struct {
	Workers     int     `json:"workers"`
	ShardedOps  float64 `json:"sharded_lookups_per_sec"`
	SingleMutex float64 `json:"single_mutex_lookups_per_sec"`
	Speedup     float64 `json:"speedup"`
}

type epochPoint struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	ItemsPerSec float64 `json:"items_per_sec"`
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
}

// runBench measures the concurrent loader pipeline on this host and writes
// the JSON report to out; returns the process exit code.
func runBench(out string) int {
	const (
		items        = 1 << 15
		opsPerWorker = 400_000
		batch        = 128
	)
	workerCounts := []int{1, 2, 4, 8}

	rep := benchReport{
		Bench:      "concurrent-loader",
		Items:      items,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	lookupTable := &stats.Table{
		Title:   "Cache lookup throughput (Mlookups/s): lock-striped ShardedMinIO vs one big mutex",
		Columns: []string{"workers", "sharded", "single-mutex", "speedup"},
	}
	for _, w := range workerCounts {
		sharded, sids := loader.BenchCacheWorkload(items, func(cap float64) cache.Cache {
			return cache.NewShardedMinIO(cap, 0)
		})
		locked, lids := loader.BenchCacheWorkload(items, func(cap float64) cache.Cache {
			return cache.NewLocked(cache.NewMinIO(cap))
		})
		s := loader.MeasureLookupThroughput(sharded, sids, w, opsPerWorker)
		l := loader.MeasureLookupThroughput(locked, lids, w, opsPerWorker)
		pt := lookupPoint{Workers: w, ShardedOps: s, SingleMutex: l, Speedup: s / l}
		rep.Lookup = append(rep.Lookup, pt)
		if w == 8 {
			rep.SpeedupAt8 = pt.Speedup
		}
		lookupTable.AddRow(w, s/1e6, l/1e6, pt.Speedup)
	}

	epochTable := &stats.Table{
		Title:   "Pipeline steady-state epoch wall time (fetch->prep over ShardedMinIO, 50% cache)",
		Columns: []string{"workers", "wall-s", "Mitems/s", "hit-%"},
	}
	d := &dataset.Dataset{Name: "bench", NumItems: items, TotalBytes: items * 1024}
	order := dataset.NewWholeRandomSampler(d, 1).EpochOrder(0)
	for _, w := range workerCounts {
		c := cache.NewShardedMinIO(d.TotalBytes/2, 0)
		loader.MeasureEpochWall(d, c, order, w, batch) // warmup epoch
		best := loader.EpochReport{WallSeconds: -1}
		for i := 0; i < 3; i++ {
			r := loader.MeasureEpochWall(d, c, order, w, batch)
			if best.WallSeconds < 0 || r.WallSeconds < best.WallSeconds {
				best = r
			}
		}
		pt := epochPoint{
			Workers: w, WallSeconds: best.WallSeconds,
			ItemsPerSec: float64(best.Items) / best.WallSeconds,
			Hits:        best.Fetch.Hits, Misses: best.Fetch.Misses,
		}
		rep.Epoch = append(rep.Epoch, pt)
		epochTable.AddRow(w, pt.WallSeconds, pt.ItemsPerSec/1e6,
			100*float64(pt.Hits)/float64(pt.Hits+pt.Misses))
	}

	fmt.Printf("%s\n%s\n", lookupTable, epochTable)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "stallbench: wrote %s (speedup at 8 workers: %.2fx on %d CPUs)\n",
		out, rep.SpeedupAt8, rep.NumCPU)
	return 0
}
