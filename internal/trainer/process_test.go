package trainer

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
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
// small single-server case run end to end (TestAllocsWholeCase), measured
// at 220 objects and 29,352 bytes once a finished run handed its page
// cache's slot array and its order buffer to the next. Earlier ceilings:
// 220 objects, 58,000 bytes (57,208 measured, 8-byte page-cache slots
// whose item sizes come from the dataset's size model); 220 objects, 80,000 bytes (79,720 measured, 16-byte slots, one
// epoch plan and one rng per sampler); 226 objects, 111,200 bytes; before
// the page cache was indexed by item ID and whole-dataset samplers stopped
// materialising an identity shard, 247 objects, 197,600 bytes; goroutine
// producers took 278 objects.
const (
	wholeCaseAllocs = 220
	wholeCaseBytes  = 30_000
)

// twoEpochsBytes is the ceiling on the heap bytes two more epochs of the
// TestAllocsWholeCase case allocate (TestAllocsPerEpoch). A job rewrites
// its one epoch plan in place, so what is left is the per-epoch snapshot
// and event bookkeeping: 800 bytes measured (before the single plan:
// 11,728 bytes).
const twoEpochsBytes = 1024

// wholeCaseConfig is the small single-server case the allocation guards
// run.
func wholeCaseConfig(epochs int) Config {
	d := dataset.OpenImages.Scale(0.001)
	return Config{
		Model: gpu.MustByName("resnet18"), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Epochs: epochs, CacheBytes: 0.5 * d.TotalBytes, Batch: 64,
	}
}

// TestReusedBuffersMatchFresh: a case run on the slot array and order
// buffer a different finished case left behind — every slot and item
// written — gives the result it gives on freshly allocated ones.
func TestReusedBuffersMatchFresh(t *testing.T) {
	cfg := wholeCaseConfig(2)
	other := cfg
	other.Seed, other.CacheBytes = 9, cfg.CacheBytes/2
	runtime.GC()
	runtime.GC() // empties the pools: the first run allocates afresh
	fresh, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := RunContext(context.Background(), other); err != nil {
			t.Fatal(err)
		}
		reused, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatal("a case run on a finished case's buffers differs from a fresh run")
		}
	}
}

// runCase returns a func that runs cfg end to end, failing t on error.
func runCase(t *testing.T, cfg Config) func() {
	return func() {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocsWholeCase guards the allocation count and heap bytes of a whole
// case. Neither depends on host speed, so a per-batch or per-event
// allocation creeping back into the engine, the fetchers or the processes,
// or a per-case buffer growing, fails here exactly.
func TestAllocsWholeCase(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	run := runCase(t, wholeCaseConfig(2))
	if avg := testing.AllocsPerRun(3, run); avg > wholeCaseAllocs {
		t.Fatalf("one case allocates %v objects, ceiling %d", avg, wholeCaseAllocs)
	}
	if b := allocBytesPerRun(3, run); b > wholeCaseBytes {
		t.Fatalf("one case allocates %d heap bytes, ceiling %d", b, wholeCaseBytes)
	}
}

// TestAllocsPerEpoch guards what an epoch costs beyond the case's set-up:
// the heap bytes of the TestAllocsWholeCase case at 4 epochs minus those
// at 2. A per-epoch order buffer, rng or plan allocated anew each epoch
// fails here exactly.
func TestAllocsPerEpoch(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	two := allocBytesPerRun(3, runCase(t, wholeCaseConfig(2)))
	four := allocBytesPerRun(3, runCase(t, wholeCaseConfig(4)))
	if four < two || four-two > twoEpochsBytes {
		t.Fatalf("two more epochs allocate %d heap bytes (%d at 2 epochs, %d at 4), ceiling %d",
			int64(four)-int64(two), two, four, twoEpochsBytes)
	}
}

// TestPlanRejectsOlderEpoch: a job keeps one epoch plan and rewrites it in
// place, so asking for an epoch older than the current plan's breaks the
// invariant that makes the rewrite safe, and panics naming both epochs.
func TestPlanRejectsOlderEpoch(t *testing.T) {
	cfg := wholeCaseConfig(4).Resolved()
	eng := sim.New()
	rt, err := newJobRuntime(cfg, eng, cluster.Build(eng, cfg.Spec, cfg.NumServers))
	if err != nil {
		t.Fatal(err)
	}
	pl := rt.plan(2)
	if again := rt.plan(2); again != pl || again.epoch != 2 {
		t.Fatalf("second plan(2) = %p for epoch %d, want %p for epoch 2", again, again.epoch, pl)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "epoch 1 ") || !strings.Contains(msg, "epoch 2's") {
			t.Fatalf("plan(1) after plan(2): panic %q, want one naming epochs 1 and 2", msg)
		}
	}()
	rt.plan(1)
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
