package trainer

import (
	"context"
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

// wholeCaseAllocs is the allocation ceiling of one small single-server case
// run end to end (TestAllocsWholeCase): the count measured when every
// simulated process became a state machine (goroutine producers took 278).
const wholeCaseAllocs = 247

// TestAllocsWholeCase guards the allocation count of a whole case. The
// count does not depend on host speed, so a per-batch or per-event
// allocation creeping back into the engine, the fetchers or the processes
// fails here exactly.
func TestAllocsWholeCase(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	d := dataset.OpenImages.Scale(0.001)
	cfg := Config{
		Model: gpu.MustByName("resnet18"), Dataset: d, Spec: cluster.ConfigSSDV100(),
		Epochs: 2, CacheBytes: 0.5 * d.TotalBytes, Batch: 64,
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > wholeCaseAllocs {
		t.Fatalf("one case allocates %v objects, ceiling %d", avg, wholeCaseAllocs)
	}
}
