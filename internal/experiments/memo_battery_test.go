// The memoization property battery: for randomized spec grids, a warm
// rerun against the cold run's cache directory must (a) simulate nothing —
// zero misses, hits equal to the grid's unique resolved cases — and (b)
// produce byte-identical output at every level a user can observe: the
// rendered table, the Values map, and the /v1/query-equivalent NDJSON over
// the captured cases. A corrupted entry must degrade to a counted miss,
// never to different bytes or an error.
//
// External test package: the battery drives internal/query over the
// captured cases, and query imports experiments.
package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datastall/internal/experiments"
	"datastall/internal/memo"
	"datastall/internal/query"
)

// randomSpecJSON builds a small sweep with randomized axes. Two of the
// three rows are deliberate syntactic variants of the same resolved case:
// one pins prefetch_depth to its default (3), the other pins batch to
// resnet18's V100 default (512) — distinct axis labels, identical
// simulations. The grid is 3 rows x 2 loaders = 6 cells but only 4 unique
// resolved cases, so within-sweep dedupe must collapse 2 cells even cold.
func randomSpecJSON(rng *rand.Rand, trial int) []byte {
	loaders := []string{"dali-shuffle", "coordl", "pytorch-dl", "dali-seq"}
	rng.Shuffle(len(loaders), func(i, j int) { loaders[i], loaders[j] = loaders[j], loaders[i] })
	picked := loaders[:2]
	fracs := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	spec := map[string]interface{}{
		"name":       fmt.Sprintf("memo-battery-%d", trial),
		"title":      "memo property battery grid",
		"row_header": []string{"variant"},
		"base": map[string]interface{}{
			"model":          "resnet18",
			"server":         "config-ssd-v100",
			"cache_fraction": fracs[rng.Intn(len(fracs))],
		},
		"rows": map[string]interface{}{
			"cases": []map[string]interface{}{
				{"label": "defaults-a", "cells": []string{"defaults-a"},
					"set": map[string]interface{}{"prefetch_depth": 3}},
				{"label": "defaults-b", "cells": []string{"defaults-b"},
					"set": map[string]interface{}{"batch": 512}},
				{"label": "half-batch", "cells": []string{"half-batch"},
					"set": map[string]interface{}{"batch": 256}},
			},
		},
		"sweep": map[string]interface{}{
			"param":  "loader",
			"values": picked,
		},
		"columns": []map[string]interface{}{
			{"label": "a s", "metric": "epoch_s", "of": picked[0]},
			{"label": "b s", "metric": "epoch_s", "of": picked[1]},
			{"label": "a stall %", "metric": "stall_pct", "of": picked[0]},
		},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// observed renders everything a user can see from a report: table text,
// values, notes, and the NDJSON a /v1/query-style scan of its cases yields.
func observed(t *testing.T, rep *experiments.Report) string {
	t.Helper()
	vals, err := json.Marshal(rep.Values)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseQuery([]byte(`{"order_by":[{"col":"case_id"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	st := query.NewStore()
	st.AddCases(rep.Cases)
	rows, err := query.New(st).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	if _, err := query.WriteNDJSON(&nd, rows); err != nil {
		t.Fatal(err)
	}
	return rep.Table.String() + "\n" + string(vals) + "\n" + rep.Notes + "\n" + nd.String()
}

// filesWithSuffix lists the files under dir whose names end in suffix.
func filesWithSuffix(t *testing.T, dir, suffix string) []string {
	t.Helper()
	var files []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	return files
}

func TestMemoColdWarmByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("grid%d", trial), func(t *testing.T) {
			sp, err := experiments.LoadSpec(randomSpecJSON(rng, trial))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			cold, err := memo.Open(memo.Options{Dir: dir, Salt: "battery"})
			if err != nil {
				t.Fatal(err)
			}
			opts := experiments.Options{Scale: 0.02, Epochs: 2, Memo: cold}
			repCold, err := experiments.RunSpec(ctx, sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			cs := cold.Stats()
			if cs.Hits != 0 {
				t.Fatalf("cold run hit %d times in an empty cache", cs.Hits)
			}
			// The grid has 6 cells but only 4 unique resolved cases (the
			// defaults-a and defaults-b rows resolve identically per loader):
			// within-sweep dedupe must collapse them before the cache ever
			// sees them.
			if cs.Misses != 4 {
				t.Fatalf("cold misses = %d, want 4 (one per unique resolved case)", cs.Misses)
			}
			goldenOut := observed(t, repCold)

			warm, err := memo.Open(memo.Options{Dir: dir, Salt: "battery"})
			if err != nil {
				t.Fatal(err)
			}
			opts.Memo = warm
			repWarm, err := experiments.RunSpec(ctx, sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			ws := warm.Stats()
			if ws.Misses != 0 {
				t.Fatalf("warm run simulated %d case(s), want 0", ws.Misses)
			}
			if ws.Hits != cs.Misses {
				t.Fatalf("warm hits = %d, want %d (every unique case served)", ws.Hits, cs.Misses)
			}
			if got := observed(t, repWarm); got != goldenOut {
				t.Fatalf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", goldenOut, got)
			}

			// Corrupt one persisted entry: the third run must notice (a
			// counted load error), silently re-simulate that case, and
			// still emit the same bytes.
			files := filesWithSuffix(t, dir, ".memo")
			if len(files) != 4 {
				t.Fatalf("%d entry files on disk, want 4", len(files))
			}
			b, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0xff
			if err := os.WriteFile(files[0], b, 0o644); err != nil {
				t.Fatal(err)
			}
			third, err := memo.Open(memo.Options{Dir: dir, Salt: "battery"})
			if err != nil {
				t.Fatal(err)
			}
			opts.Memo = third
			repThird, err := experiments.RunSpec(ctx, sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			ts := third.Stats()
			if ts.LoadErrors != 1 {
				t.Fatalf("load errors = %d, want 1 (the corrupted entry)", ts.LoadErrors)
			}
			if ts.Misses != 1 || ts.Hits != 3 {
				t.Fatalf("after corruption hits=%d misses=%d, want 3/1", ts.Hits, ts.Misses)
			}
			if got := observed(t, repThird); got != goldenOut {
				t.Fatal("output after corruption-induced re-simulation differs")
			}
		})
	}
}

// TestMemoSharedAcrossSpecs: overlapping sweeps share work through one
// cache — a second spec whose grid overlaps the first's re-simulates only
// the cells the first never ran.
func TestMemoSharedAcrossSpecs(t *testing.T) {
	ctx := context.Background()
	cache, err := memo.Open(memo.Options{Dir: t.TempDir(), Salt: "battery"})
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Scale: 0.02, Epochs: 2, Memo: cache}
	if _, err := experiments.RunSpec(ctx, fracSweep(t, "overlap", []float64{0.2, 0.4, 0.6}), opts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("first sweep hits=%d misses=%d, want 0/3", st.Hits, st.Misses)
	}
	// 2 of 4 values overlap the first sweep.
	if _, err := experiments.RunSpec(ctx, fracSweep(t, "overlap", []float64{0.2, 0.4, 0.7, 0.8}), opts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 5 || st.Hits != 2 {
		t.Fatalf("after overlap hits=%d misses=%d, want 2/5", st.Hits, st.Misses)
	}
}

// TestCaseKeyCollapsesSyntacticVariants: two JobSpecs that resolve to the
// same simulation must share an address; changing any load-bearing knob or
// the salt must rotate it.
func TestCaseKeyCollapsesSyntacticVariants(t *testing.T) {
	o := experiments.Options{Scale: 0.02, Epochs: 2}
	base := experiments.JobSpec{Model: "resnet18"}
	explicit := experiments.JobSpec{Model: "resnet18", Loader: "dali-shuffle", PrefetchDepth: 3}
	k1, err := experiments.CaseKey(base, o, "s")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := experiments.CaseKey(explicit, o, "s")
	if err != nil {
		t.Fatal(err)
	}
	if k1.Hash != k2.Hash {
		t.Fatal("defaulted and explicitly-defaulted spec hash differently")
	}
	k3, err := experiments.CaseKey(experiments.JobSpec{Model: "resnet18", Batch: 2}, o, "s")
	if err != nil {
		t.Fatal(err)
	}
	if k3.Hash == k1.Hash {
		t.Fatal("different batch size did not change the key")
	}
	k4, err := experiments.CaseKey(base, o, "other-salt")
	if err != nil {
		t.Fatal(err)
	}
	if k4.Hash == k1.Hash {
		t.Fatal("salt change did not rotate the key")
	}
}
