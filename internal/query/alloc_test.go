package query

import (
	"context"
	"io"
	"os"
	"testing"

	"datastall/internal/race"
)

// bestCacheQuery parses the committed fig-18 query, the one the job
// service's benchmark client sends.
func bestCacheQuery(tb testing.TB) *Query {
	tb.Helper()
	src, err := os.ReadFile("../../testdata/queries/best-cache.json")
	if err != nil {
		tb.Fatal(err)
	}
	q, err := ParseQuery(src)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// runToNDJSON runs q over st and streams the result, as /v1/query does.
func runToNDJSON(tb testing.TB, st *Store, q *Query) {
	rows, err := New(st).Run(context.Background(), q)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := WriteNDJSON(io.Discard, rows); err != nil {
		tb.Fatal(err)
	}
}

// bestCacheAllocs is the object ceiling for one best-cache query, NDJSON
// included: measured 69 at any store size (go1.24, amd64). The plan, the
// pipeline, the group map and the output rows are per query; nothing is per
// scanned row.
const bestCacheAllocs = 72

// TestAllocsQueryRows: the scan reads cases in place through one reused
// row, so the best-cache query allocates the same number of objects over
// 1,024 cases as over 4,096, and no more than the measured ceiling.
func TestAllocsQueryRows(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	q := bestCacheQuery(t)
	var allocs [2]float64
	for i, n := range []int{1024, 4096} {
		st := testStore(21, n)
		allocs[i] = testing.AllocsPerRun(5, func() { runToNDJSON(t, st, q) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("best-cache allocates %v objects over 1024 cases but %v over 4096: a per-row allocation", allocs[0], allocs[1])
	}
	if allocs[0] > bestCacheAllocs {
		t.Fatalf("best-cache allocates %v objects, ceiling %d", allocs[0], bestCacheAllocs)
	}
}

// BenchmarkQueryBestCache times the fig-18 query over 1,024 cases, the
// store size the job service's benchmark retains. Run with -benchmem.
func BenchmarkQueryBestCache(b *testing.B) {
	q := bestCacheQuery(b)
	st := testStore(21, 1024)
	b.ReportAllocs()
	for b.Loop() {
		runToNDJSON(b, st, q)
	}
}
