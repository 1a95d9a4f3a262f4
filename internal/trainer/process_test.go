package trainer

import (
	"context"
	"math"
	"runtime"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/race"
	"datastall/internal/sim"
)

// TestSimulationStartsNoGoroutines: every simulated producer, consumer and
// detector is a state machine stepped on the caller's goroutine, so the
// goroutine count read from inside a running simulation is the count before
// it started. (It is compared as "not above": a goroutine an earlier test
// left behind may still be exiting.)
func TestSimulationStartsNoGoroutines(t *testing.T) {
	d := dataset.OpenImages.Scale(0.001)
	single := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Epochs: 2, CacheBytes: 0.5 * d.TotalBytes, Batch: 64,
	}
	partitioned := single
	partitioned.Loader, partitioned.NumServers = loader.CoorDL, 2
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"single-server", single}, {"partitioned-2srv", partitioned}} {
		before := runtime.NumGoroutine()
		probes := 0
		probe := ObserverFunc(func(ev Event) {
			if _, ok := ev.(EpochEnded); !ok {
				return
			}
			probes++
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s: %d goroutines mid-run, %d before", tc.name, n, before)
			}
		})
		if _, err := RunContext(context.Background(), tc.cfg, probe); err != nil {
			t.Fatal(err)
		}
		if probes == 0 {
			t.Fatalf("%s: the run emitted no EpochEnded to probe from", tc.name)
		}
	}

	cc, err := ConcurrentConfig{
		Base: Config{
			Model: gpu.MustByName("alexnet"), Dataset: d, Spec: cluster.ConfigSSDV100(),
			Epochs: 2, CacheBytes: d.TotalBytes, Batch: 128,
		},
		NumJobs: 4, GPUsPerJob: 1, Coordinated: true, KillJob: 2, KillAfterBatches: 3,
	}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	rt := newCoordRuntime(cc)
	before := runtime.NumGoroutine()
	// A probe process samples the count every few iterations until it has
	// seen the recovery producer at work for a while.
	recovered := 0
	rt.eng.Spawn("probe", func(p *sim.Proc) {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("coordinated: %d goroutines mid-run, %d before", n, before)
		}
		if len(rt.detector.Detected) > 0 {
			recovered++
		}
		if recovered < 3 {
			p.WakeAfter(5 * rt.iterTime)
		}
	})
	rt.eng.Run()
	if recovered < 3 {
		t.Fatal("the failure detector never fired, so the recovery producer went unprobed")
	}
}

// wholeCaseAllocs and wholeCaseBytes are the allocation ceilings of one
// small single-server case run end to end (TestAllocsWholeCase): the
// object count and heap bytes measured once the page cache was indexed by
// item ID and whole-dataset samplers stopped materialising an identity
// shard (before: 247 objects, 197,600 bytes; goroutine producers took 278
// objects).
const (
	wholeCaseAllocs = 226
	wholeCaseBytes  = 111_200
)

// TestAllocsWholeCase guards the allocation count and heap bytes of a whole
// case. Neither depends on host speed, so a per-batch or per-event
// allocation creeping back into the engine, the fetchers or the processes,
// or a per-case buffer growing, fails here exactly.
func TestAllocsWholeCase(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	d := dataset.OpenImages.Scale(0.001)
	cfg := Config{
		Model: gpu.MustByName("resnet18"), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Epochs: 2, CacheBytes: 0.5 * d.TotalBytes, Batch: 64,
	}
	run := func() {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(3, run); avg > wholeCaseAllocs {
		t.Fatalf("one case allocates %v objects, ceiling %d", avg, wholeCaseAllocs)
	}
	if b := allocBytesPerRun(3, run); b > wholeCaseBytes {
		t.Fatalf("one case allocates %d heap bytes, ceiling %d", b, wholeCaseBytes)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes
// (runtime.MemStats.TotalAlloc) one call of f allocates, after a warm-up
// call, measured on one P. It reports the least of runs calls, since a
// stray allocation by another goroutine can only add bytes.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
