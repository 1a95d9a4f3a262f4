package loader

import (
	"math"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/pagecache"
	"datastall/internal/sim"
	"datastall/internal/sim/simtest"
	"datastall/internal/stats"
)

func testEnv(nServers int) (*sim.Engine, *cluster.Cluster, *dataset.Dataset) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), nServers)
	d := &dataset.Dataset{Name: "t", NumItems: 200, TotalBytes: 200 * 100 * stats.KiB}
	return e, cl, d
}

// fetch is a script step that plans items on server 0 through f and issues
// the plan's device operations; *res (if non-nil) receives the result once
// they have completed.
func fetch(cl *cluster.Cluster, f Fetcher, items []dataset.ItemID, res *FetchResult) simtest.Step {
	var pf PlannedFetch
	started := false
	return func(p *sim.Proc) bool {
		if !started {
			pf.Start(f, 0, items)
			started = true
		}
		if !pf.Advance(p, cl) {
			return false
		}
		started = false
		if res != nil {
			*res = pf.Result
		}
		return true
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		DALIShuffle: "dali-shuffle", DALISeq: "dali-seq",
		PyTorchDL: "pytorch-dl", CoorDL: "coordl",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d: %s != %s", k, k.String(), want)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func TestFetchResultAdd(t *testing.T) {
	a := FetchResult{MemBytes: 1, DiskBytes: 2, NetBytes: 3, DiskItems: 4, Hits: 5, RemoteHit: 6, Misses: 7}
	b := a
	a.Add(b)
	if a.MemBytes != 2 || a.DiskBytes != 4 || a.NetBytes != 6 ||
		a.DiskItems != 8 || a.Hits != 10 || a.RemoteHit != 12 || a.Misses != 14 {
		t.Fatalf("bad add: %+v", a)
	}
}

func TestPageCacheFetcherColdThenWarm(t *testing.T) {
	e, cl, d := testEnv(1)
	f := NewPageCacheFetcher(d, cl, d.TotalBytes, 1) // cache fits everything
	items := []dataset.ItemID{0, 1, 2, 3}
	var cold, warm FetchResult
	simtest.Script(e, "x", fetch(cl, f, items, &cold), fetch(cl, f, items, &warm))
	e.Run()
	if cold.Misses != 4 || cold.DiskItems != 4 {
		t.Fatalf("cold: %+v", cold)
	}
	if warm.Hits != 4 || warm.DiskBytes != 0 {
		t.Fatalf("warm: %+v", warm)
	}
	if cl.Servers[0].Disk.TotalBytes() != cold.DiskBytes {
		t.Fatal("disk not charged")
	}
}

func TestPageCacheFetcherSeeksPerItem(t *testing.T) {
	_, cl, d := testEnv(1)
	f := NewPageCacheFetcher(d, cl, 1, 1) // cache too small: all misses
	f.SeeksPerItem = 3
	r, ops := f.Plan(0, []dataset.ItemID{0, 1}, nil)
	if r.DiskItems != 6 {
		t.Fatalf("disk items %d, want 2 items x 3 seeks", r.DiskItems)
	}
	if len(ops) != 1 || ops[0].Kind != OpDiskRandom || ops[0].N != 6 {
		t.Fatalf("batch should aggregate into one device request, got %+v", ops)
	}
}

func TestPageCacheSharedAcrossCallers(t *testing.T) {
	// Fetchers are shared per server: a second job benefits from (and
	// interferes with) the first job's cache contents.
	e, cl, d := testEnv(1)
	f := NewPageCacheFetcher(d, cl, d.TotalBytes, 1)
	var second FetchResult
	simtest.Script(e, "job1", fetch(cl, f, []dataset.ItemID{7, 8}, nil))
	simtest.Script(e, "job2", simtest.Sleep(100), fetch(cl, f, []dataset.ItemID{7, 8}, &second))
	e.Run()
	if second.Hits != 2 {
		t.Fatalf("cross-job hits %d, want 2", second.Hits)
	}
}

func TestSyntheticFetcherFree(t *testing.T) {
	e, cl, _ := testEnv(1)
	var r FetchResult
	var took float64
	simtest.Script(e, "x", fetch(cl, SyntheticFetcher{}, []dataset.ItemID{0, 1, 2}, &r),
		simtest.Do(func(p *sim.Proc) { took = p.Now() }))
	e.Run()
	if took != 0 || r.Hits != 3 || r.DiskBytes != 0 {
		t.Fatalf("synthetic fetch not free: t=%v %+v", took, r)
	}
}

func TestCachedFetcherChargesMemoryOnly(t *testing.T) {
	e, cl, d := testEnv(1)
	f := &CachedFetcher{Dataset: d, Cluster: cl}
	var r FetchResult
	var took float64
	simtest.Script(e, "x", fetch(cl, f, []dataset.ItemID{0, 1}, &r),
		simtest.Do(func(p *sim.Proc) { took = p.Now() }))
	e.Run()
	if r.MemBytes != 2*d.AvgItemBytes() || r.DiskBytes != 0 {
		t.Fatalf("cached fetch: %+v", r)
	}
	if took <= 0 {
		t.Fatal("memory copy should take (a little) time")
	}
	if cl.Servers[0].Disk.TotalBytes() != 0 {
		t.Fatal("cached fetch touched disk")
	}
}

func TestTFRecordFetcherRecordGranularity(t *testing.T) {
	e, cl, d := testEnv(1)
	rec := 10 * d.AvgItemBytes() // 10 items per record
	f := NewTFRecordFetcher(d, cl, d.TotalBytes, rec, 1)
	if f.Record(0) != f.Record(9) || f.Record(0) == f.Record(10) {
		t.Fatal("record mapping wrong")
	}
	// Items 0..9 share a record; 10 starts the next. The second batch
	// covers the same records: all hits, memory only.
	var r, r2 FetchResult
	simtest.Script(e, "x",
		fetch(cl, f, []dataset.ItemID{0, 5, 9, 10}, &r),
		fetch(cl, f, []dataset.ItemID{1, 11}, &r2))
	e.Run()
	if r.Misses != 2 {
		t.Fatalf("misses %d, want 2 records", r.Misses)
	}
	if r.DiskBytes != 2*rec {
		t.Fatalf("disk bytes %v, want 2 records", r.DiskBytes)
	}
	if r2.Hits != 2 || r2.DiskBytes != 0 {
		t.Fatalf("warm record fetch: %+v", r2)
	}
}

// TestHitBooksItsMissBytes: planning the same items twice on a cache that
// holds them all, the second plan's hits book exactly the bytes the first
// plan's misses read from disk, and the cache holds exactly those bytes —
// for item sizes spread around the mean and for uniform records. A cache
// built with a size model other than the one the fetcher books from fails
// here.
func TestHitBooksItsMissBytes(t *testing.T) {
	_, cl, _ := testEnv(1)
	d := dataset.ImageNet1K.Scale(0.0002)
	if s := d.Sizes(); s.Bytes(0) == s.Bytes(1) {
		t.Fatal("dataset item sizes do not spread")
	}
	items := make([]dataset.ItemID, d.NumItems)
	for i := range items {
		items[i] = dataset.ItemID(i)
	}
	pc := NewPageCacheFetcher(d, cl, 2*d.TotalBytes, 1)
	tf := NewTFRecordFetcher(d, cl, 2*d.TotalBytes, 10*d.AvgItemBytes(), 1)
	for _, tc := range []struct {
		name   string
		f      Fetcher
		caches []*pagecache.Cache
	}{
		{"pagecache", pc, pc.Caches},
		{"tfrecord", tf, tf.Caches},
	} {
		cold, _ := tc.f.Plan(0, items, nil)
		warm, _ := tc.f.Plan(0, items, nil)
		if cold.Hits != 0 || warm.Misses != 0 || warm.Hits != cold.Misses {
			t.Fatalf("%s: cold %+v, warm %+v; want all misses then all hits", tc.name, cold, warm)
		}
		if math.Float64bits(warm.MemBytes) != math.Float64bits(cold.DiskBytes) {
			t.Fatalf("%s: hits booked %v bytes, their misses %v", tc.name, warm.MemBytes, cold.DiskBytes)
		}
		if used := tc.caches[0].UsedBytes(); math.Float64bits(used) != math.Float64bits(cold.DiskBytes) {
			t.Fatalf("%s: cache holds %v bytes, misses read %v", tc.name, used, cold.DiskBytes)
		}
	}
}

func TestTFRecordFetcherEviction(t *testing.T) {
	e, cl, d := testEnv(1)
	rec := 10 * d.AvgItemBytes()
	f := NewTFRecordFetcher(d, cl, 2*rec, rec, 1) // cache holds 2 records
	var steps []simtest.Step
	for i := 0; i < 20; i++ {
		steps = append(steps, fetch(cl, f, []dataset.ItemID{dataset.ItemID(i * 10)}, nil))
	}
	simtest.Script(e, "x", steps...)
	e.Run()
	if f.Caches[0].UsedBytes() > 2*rec {
		t.Fatal("record cache exceeded capacity")
	}
	if cl.Servers[0].Disk.TotalBytes() < 18*rec {
		t.Fatal("expected most record fetches to miss")
	}
}

// TestPlannedFetchIssuesInOrder: a plan's operations are booked one after
// another — the DRAM copy starts only once the storage read has completed —
// and each disk read is traced at its completion.
func TestPlannedFetchIssuesInOrder(t *testing.T) {
	e, cl, d := testEnv(1)
	disk := cl.Servers[0].Disk
	disk.EnableTrace("io")
	f := NewPageCacheFetcher(d, cl, d.TotalBytes, 1)
	var cold, mixed FetchResult
	var coldDone, mixedDone float64
	simtest.Script(e, "x",
		fetch(cl, f, []dataset.ItemID{0, 1}, &cold),
		simtest.Do(func(p *sim.Proc) { coldDone = p.Now() }),
		fetch(cl, f, []dataset.ItemID{0, 2}, &mixed), // item 0 hits, item 2 misses
		simtest.Do(func(p *sim.Proc) { mixedDone = p.Now() }))
	e.Run()
	read := disk.Spec.SeekTime + d.Sizes().Bytes(2)/disk.Spec.SeqBW
	memCopy := d.Sizes().Bytes(0) / cl.Servers[0].Mem.BW
	if got := mixedDone - coldDone; math.Abs(got-(read+memCopy)) > 1e-12 {
		t.Fatalf("mixed fetch took %v, want read %v then copy %v", got, read, memCopy)
	}
	if disk.Trace.Len() != 2 || disk.Trace.Times[0] != coldDone {
		t.Fatalf("disk trace at %v, want one point per read at its completion (first at %v)", disk.Trace.Times, coldDone)
	}
	if cold.Misses != 2 || mixed.Hits != 1 || mixed.Misses != 1 {
		t.Fatalf("cold %+v mixed %+v", cold, mixed)
	}
}
