package experiments_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/memo"
	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// fracSweep is a one-column sweep over cache_fraction, one cell per value.
func fracSweep(t *testing.T, name string, fracs []float64) *experiments.Spec {
	t.Helper()
	b, err := json.Marshal(map[string]interface{}{
		"name":       name,
		"title":      name,
		"row_header": []string{"frac"},
		"base":       map[string]interface{}{"model": "resnet18", "server": "config-ssd-v100"},
		"rows":       map[string]interface{}{"param": "cache_fraction", "values": fracs},
		"columns":    []map[string]interface{}{{"label": "s", "metric": "epoch_s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := experiments.LoadSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// onDisk reports how many of keys a fresh cache on dir serves from disk.
func onDisk(t *testing.T, dir string, keys []memo.Key) (served int) {
	t.Helper()
	fresh, err := memo.Open(memo.Options{Dir: dir, Salt: "writes"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := fresh.Get(k); ok {
			served++
		}
	}
	if st := fresh.Stats(); st.LoadErrors != 0 {
		t.Fatalf("fresh cache counted %d load errors", st.LoadErrors)
	}
	return served
}

// decodable reports how many of keys have a valid entry file in dir. It
// reads the files directly: a fresh Open would delete the temp files of
// writes still in flight in the same directory.
func decodable(dir string, keys []memo.Key) (n int) {
	for _, k := range keys {
		b, err := os.ReadFile(filepath.Join(dir, k.Hash[:2], k.Hash+".memo"))
		if err != nil {
			continue
		}
		if got, _, err := memo.DecodeEntry(b); err == nil && got.Hash == k.Hash {
			n++
		}
	}
	return n
}

func cellKeys(t *testing.T, cells []experiments.SpecCase, o experiments.Options) []memo.Key {
	t.Helper()
	keys := make([]memo.Key, len(cells))
	for i, c := range cells {
		k, err := experiments.CaseKey(c.Job, o, "writes")
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// concurrentBatch is a coordinator-style batch runner: every cell of the
// batch runs at once, each on its own goroutine.
func concurrentBatch(run experiments.RunCell) experiments.RunBatch {
	return func(ctx context.Context, cells []experiments.SpecCase, spans []obs.Span, deliver func(int, *trainer.Result)) error {
		var wg sync.WaitGroup
		errs := make([]error, len(cells))
		for k := range cells {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				res, err := run(ctx, cells[k], spans[k])
				if err != nil {
					errs[k] = err
					return
				}
				deliver(k, res)
			}(k)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

// TestExecuteWritesBehind pins the write-behind contract of the cell
// executor: memo entries are written after their cells return, yet every
// entry a grid's cells wrote is durable when Execute returns.
func TestExecuteWritesBehind(t *testing.T) {
	o := experiments.Options{Scale: 0.005, Epochs: 1}

	// Two Execute calls at once on one disk-backed cache — the job
	// service's two workers. The grids overlap, so one call is served
	// entries the other is still writing. Neither may panic; each, when it
	// returns, has every one of its cells on disk, and once both have, a
	// fresh cache serves all of them.
	t.Run("concurrent", func(t *testing.T) {
		dir := t.TempDir()
		cache, err := memo.Open(memo.Options{Dir: dir, Salt: "writes"})
		if err != nil {
			t.Fatal(err)
		}
		o := o
		o.Memo = cache
		for round := 0; round < 3; round++ {
			base := 0.1 + 0.2*float64(round)
			grids := [][]float64{
				{base, base + 0.02, base + 0.04, base + 0.06, base + 0.08},
				{base + 0.04, base + 0.06, base + 0.08, base + 0.1, base + 0.12},
			}
			var wg sync.WaitGroup
			errs := make([]error, len(grids))
			var all []memo.Key
			for g, fracs := range grids {
				cells, err := experiments.EnumerateCases(fracSweep(t, fmt.Sprintf("w%d-%d", round, g), fracs), o)
				if err != nil {
					t.Fatal(err)
				}
				keys := cellKeys(t, cells, o)
				all = append(all, keys...)
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// One serial worker, one coordinator-style batch grid.
					e := experiments.Executor{Run: experiments.LocalRunner(o)}
					if g == 1 {
						e = experiments.Executor{Batch: concurrentBatch(experiments.LocalRunner(o))}
					}
					if _, err := e.Execute(context.Background(), cells, o); err != nil {
						errs[g] = err
						return
					}
					if n := decodable(dir, keys); n != len(keys) {
						errs[g] = fmt.Errorf("grid %d returned with %d of %d entries on disk", g, n, len(keys))
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if n := onDisk(t, dir, all); n != len(all) {
				t.Fatalf("a fresh cache served %d of %d entries", n, len(all))
			}
		}
		if st := cache.Stats(); st.Misses != 3*7 || st.LoadErrors != 0 {
			t.Fatalf("misses %d, load errors %d, want %d/0", st.Misses, st.LoadErrors, 3*7)
		}
		if tmp := filesWithSuffix(t, dir, ".tmp"); len(tmp) != 0 {
			t.Fatalf("temp files left behind: %v", tmp)
		}
	})

	// A grid cancelled mid-way returns its error only after the writes its
	// finished cells started are durable, and leaves no goroutine behind.
	t.Run("cancel", func(t *testing.T) {
		dir := t.TempDir()
		cache, err := memo.Open(memo.Options{Dir: dir, Salt: "writes"})
		if err != nil {
			t.Fatal(err)
		}
		o := o
		o.Memo = cache
		cells, err := experiments.EnumerateCases(fracSweep(t, "cancel", []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}), o)
		if err != nil {
			t.Fatal(err)
		}
		keys := cellKeys(t, cells, o)
		start := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const finished = 3
		run := experiments.LocalRunner(o)
		var ran int
		e := experiments.Executor{Run: func(ctx context.Context, c experiments.SpecCase, sp obs.Span) (*trainer.Result, error) {
			if ran == finished {
				cancel()
			}
			ran++
			return run(ctx, c, sp)
		}}
		if _, err := e.Execute(ctx, cells, o); err == nil {
			t.Fatal("cancelled grid returned no error")
		}
		if n := onDisk(t, dir, keys[:finished]); n != finished {
			t.Fatalf("cancelled grid returned with %d of its %d written entries on disk", n, finished)
		}
		if n := onDisk(t, dir, keys[finished:]); n != 0 {
			t.Fatalf("%d entries on disk for cells that never finished", n)
		}
		if tmp := filesWithSuffix(t, dir, ".tmp"); len(tmp) != 0 {
			t.Fatalf("temp files left behind: %v", tmp)
		}
		// A write goroutine exits just after it signals; give it a moment.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > start {
			t.Fatalf("%d goroutines after the cancelled grid, %d before", n, start)
		}
	})
}
