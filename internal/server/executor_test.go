package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// dupSpec is a 3-row x 2-loader grid with planted duplicates: prefetch
// depth 3 and batch 512 are resnet18's defaults, so the defaults-b row
// resolves exactly like defaults-a. Six cells, four unique cases; cells 2
// and 3 copy cells 0 and 1.
const dupSpec = `{
	"name": "dedup",
	"row_header": ["variant"],
	"base": {"model": "resnet18", "dataset": "imagenet-1k", "scale": 0.005, "epochs": 2, "seed": 3},
	"rows": {"cases": [
		{"label": "defaults-a", "cells": ["defaults-a"], "set": {"prefetch_depth": 3}},
		{"label": "defaults-b", "cells": ["defaults-b"], "set": {"batch": 512}},
		{"label": "half-batch", "cells": ["half-batch"], "set": {"batch": 256}}
	]},
	"sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
	"columns": [{"label": "dali s", "metric": "epoch_s", "of": "dali-shuffle"}]
}`

// The pre-seeded WAL holds the spec (job-000001) with cell 0 already done,
// and the single job (job-000002) submitted but not started. Cell 2 is cell
// 0's duplicate, so it must copy a resumed leader.
const (
	batterySpecID = "job-000001"
	batteryJobID  = "job-000002"
	batteryCells  = 6
	// batteryRuns counts the cells that reach the runner: the spec's unique
	// cells minus the resumed one, plus the single job.
	batteryRuns = 4
)

// seedBatteryWAL writes the interrupted state both jobs recover from.
func seedBatteryWAL(t *testing.T, dir string, sp *experiments.Spec, js *experiments.JobSpec, cell0 *trainer.Result) {
	t.Helper()
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	for _, r := range []struct {
		typ     wal.Type
		id      string
		payload interface{}
	}{
		{wal.TypeSubmitted, batterySpecID, walSubmitted{Kind: KindSpec, Name: sp.Name, SubmittedAt: now, Spec: sp}},
		{wal.TypeStarted, batterySpecID, walStarted{StartedAt: now}},
		{wal.TypeCaseDone, batterySpecID, walCase{Index: 0, Result: cell0}},
		{wal.TypeSubmitted, batteryJobID, walSubmitted{Kind: KindJob, Name: js.Model, SubmittedAt: now, Job: js}},
	} {
		b, err := json.Marshal(r.payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(wal.Record{Type: r.typ, JobID: r.id, Payload: b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorEveryConfiguration runs one workload through every
// configuration of the one cell executor the service has — {local,
// coordinator over two workers} x {memo, no memo} — recovering a spec
// with planted duplicates and a single job from a pre-seeded WAL. Every
// configuration must produce in-process bytes, run exactly the unique
// non-resumed cells, log every cell, and mark every duplicate.
func TestExecutorEveryConfiguration(t *testing.T) {
	ctx := context.Background()
	sp, err := experiments.LoadSpec([]byte(dupSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiments.RunSpec(ctx, sp, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := json.Marshal(toReportJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	js := jobSpecFor(t, tinyJob)
	cfg, err := js.Build(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantResult, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	for _, coord := range []bool{false, true} {
		for _, memo := range []bool{false, true} {
			t.Run(fmt.Sprintf("coordinator=%v/memo=%v", coord, memo), func(t *testing.T) {
				walDir := filepath.Join(t.TempDir(), "wal")
				seedBatteryWAL(t, walDir, sp, js, direct.Cases[0].Result)
				cfg := Config{Workers: 2, WALDir: walDir}
				if memo {
					cfg.MemoDir = t.TempDir()
				}
				if coord {
					_, w1 := newWorker(t, Config{Workers: 2}, nil)
					_, w2 := newWorker(t, Config{Workers: 2}, nil)
					cfg.WorkerURLs = []string{w1.URL, w2.URL}
					cfg.RetryBackoff = 5 * time.Millisecond
				}
				srv, ts := newTestServer(t, cfg)
				for _, id := range []string{batterySpecID, batteryJobID} {
					if st := waitTerminal(t, srv, id, 120*time.Second); st != StatusCompleted {
						t.Fatalf("job %s ended %s (%s)", id, st, srv.store.get(id).view(true).Error)
					}
				}

				if got := reportBytes(t, ts, batterySpecID); got != string(wantReport) {
					t.Errorf("report differs from in-process RunSpec:\n got %s\nwant %s", got, wantReport)
				}
				if got := resultBytes(t, ts, batteryJobID); got != string(wantResult) {
					t.Errorf("result differs from in-process RunContext:\n got %s\nwant %s", got, wantResult)
				}

				if got := srv.metrics.walResumedCases.Load(); got != 1 {
					t.Errorf("resumed cases = %d, want 1", got)
				}
				if got := srv.metrics.casesDispatched.Load(); coord && got != batteryRuns {
					t.Errorf("dispatched %d cases, want exactly %d", got, batteryRuns)
				}
				if memo {
					if st := srv.memo.Stats(); st.Misses != batteryRuns || st.Hits != 0 {
						t.Errorf("memo hits/misses %d/%d, want 0/%d", st.Hits, st.Misses, batteryRuns)
					}
				}

				rec, err := wal.ReadAll(walDir)
				if err != nil {
					t.Fatal(err)
				}
				requireSubmittedFirst(t, rec.Records)
				done := map[string]map[int]bool{}
				for _, r := range rec.Records {
					if r.Type != wal.TypeCaseDone {
						continue
					}
					var c walCase
					if err := json.Unmarshal(r.Payload, &c); err != nil {
						t.Fatal(err)
					}
					if done[r.JobID] == nil {
						done[r.JobID] = map[int]bool{}
					}
					done[r.JobID][c.Index] = true
				}
				for id, n := range map[string]int{batterySpecID: batteryCells, batteryJobID: 1} {
					for i := 0; i < n; i++ {
						if !done[id][i] {
							t.Errorf("job %s: no case_done record for cell %d (logged %v)", id, i, done[id])
						}
					}
				}

				checkCaseSpans(t, fetchTraceRecords(t, ts, batterySpecID))
			})
		}
	}
}

// checkCaseSpans requires the spec's case spans to mark exactly the
// duplicate cells (the defaults-b row) case_dedup and the resumed cell
// case_resumed, and exactly three cells to have run.
func checkCaseSpans(t *testing.T, recs []obs.SpanRecord) {
	t.Helper()
	children := map[int64]map[string]bool{}
	for _, r := range recs {
		if children[r.Parent] == nil {
			children[r.Parent] = map[string]bool{}
		}
		children[r.Parent][r.Name] = true
	}
	cases, ran := 0, 0
	for _, r := range spansNamed(recs, "case") {
		row, kase := attrValue(r, "row"), attrValue(r, "case")
		if row == "" {
			continue // a worker's own case span, grafted under an attempt
		}
		cases++
		kids := children[r.ID]
		if dup := row == "defaults-b"; kids["case_dedup"] != dup {
			t.Errorf("case %s/%s: case_dedup %v, want %v", row, kase, kids["case_dedup"], dup)
		}
		if resumed := row == "defaults-a" && kase == "dali-shuffle"; kids["case_resumed"] != resumed {
			t.Errorf("case %s/%s: case_resumed %v, want %v", row, kase, kids["case_resumed"], resumed)
		}
		if kids["simulate"] || kids["attempt"] {
			ran++
		}
	}
	if cases != batteryCells || ran != batteryRuns-1 {
		t.Errorf("%d case spans, %d ran; want %d and %d", cases, ran, batteryCells, batteryRuns-1)
	}
}

func attrValue(r obs.SpanRecord, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// resultBytes fetches a completed single job and returns its result
// re-marshalled.
func resultBytes(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
	var v jobJSON
	if err := json.Unmarshal([]byte(body), &v); err != nil || v.Result == nil {
		t.Fatalf("job %s has no result: %s", id, body)
	}
	b, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
