package trainer

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden-paths.json from current output")

// pathsGolden is the file TestSimPathsGolden pins.
const pathsGolden = "testdata/golden-paths.json"

// goldenPaths runs the simulator paths the suite golden never reaches —
// failure detection with a recovery producer, a capacity-bound staging area
// with its memory trace, disk and CPU traces on the HDD SKU, and a 2-server
// partitioned cache — and returns their results keyed by case name.
func goldenPaths(t *testing.T) map[string]any {
	t.Helper()
	d := dataset.OpenImages.Scale(0.001)
	coordBase := Config{
		Model: gpu.MustByName("alexnet"), Dataset: d,
		Spec: cluster.ConfigSSDV100(), Epochs: 2,
		CacheBytes: 0.5 * d.TotalBytes, Batch: 128, Seed: 3,
	}
	out := map[string]any{}

	kill, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: coordBase, NumJobs: 4, GPUsPerJob: 1, Coordinated: true,
		KillJob: 2, KillAfterBatches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["coord-kill"] = kill

	// A staging cap of a few prepared batches makes producers block on it.
	staged, err := RunConcurrentContext(context.Background(), ConcurrentConfig{
		Base: coordBase, NumJobs: 4, GPUsPerJob: 1, Coordinated: true,
		StagingCapBytes: 6 * float64(coordBase.Batch) * coordBase.Model.PreparedBytes,
		TraceStagingMem: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["coord-staging-trace"] = staged

	hd := dataset.OpenImages.Scale(0.002)
	traced, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("resnet18"), Dataset: hd,
		Spec: cluster.ConfigHDD1080Ti(), Loader: loader.PyTorchDL, Epochs: 2,
		CacheBytes: 0.5 * hd.TotalBytes, Seed: 5,
	}, DiskTraceObserver(), CPUTraceObserver())
	if err != nil {
		t.Fatal(err)
	}
	out["hdd-traces"] = traced

	part, err := RunContext(context.Background(), Config{
		Model: gpu.MustByName("alexnet"), Dataset: hd,
		Spec: cluster.ConfigSSDV100(), Loader: loader.CoorDL,
		NumServers: 2, Epochs: 3, CacheBytes: 0.4 * hd.TotalBytes, Batch: 64, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["partitioned-2srv"] = part
	return out
}

// TestSimPathsGolden pins the non-suite simulator paths byte for byte, so an
// engine or process-model refactor cannot change them unnoticed. Rewrite the
// golden only for a deliberate model change:
//
//	go test -run TestSimPathsGolden -update ./internal/trainer
func TestSimPathsGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenPaths(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(pathsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pathsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s drifted at line %d:\n  got:  %s\n  want: %s", pathsGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: got %d lines, want %d", pathsGolden, len(gl), len(wl))
}
