package core

import (
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/sim"
	. "datastall/internal/sim/simtest"
	"datastall/internal/stats"
)

// Compile-time checks: CoorDL fetchers satisfy the loader interface.
var (
	_ loader.Fetcher = (*MinIOFetcher)(nil)
	_ loader.Fetcher = (*PartitionedFetcher)(nil)
)

// fetch is a script step that plans items on server through f and issues
// the plan's device operations; *res (if non-nil) receives the result once
// they have completed.
func fetch(cl *cluster.Cluster, f loader.Fetcher, server int, items []dataset.ItemID, res *loader.FetchResult) Step {
	var pf loader.PlannedFetch
	started := false
	return func(p *sim.Proc) bool {
		if !started {
			pf.Start(f, server, items)
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

// put stages b, waiting while the staging area is full.
func put(s *StagingArea, b *Batch) Step {
	return Until(func(p *sim.Proc) bool { return s.TryPut(p, b) })
}

// get consumes batch index on behalf of job, waiting until it is staged.
func get(s *StagingArea, job, index int) Step {
	return Until(func(p *sim.Proc) bool { return s.TryGetAny(p, job, index, index+1) != nil })
}

func testDataset(n int) *dataset.Dataset {
	return &dataset.Dataset{Name: "t", NumItems: n, TotalBytes: float64(n) * 1000}
}

func TestMinIOFetcherChargesDevices(t *testing.T) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), 1)
	d := testDataset(100)
	f := NewMinIOFetcher(d, cl, 50*1000)
	items := []dataset.ItemID{0, 1, 2}
	var r1, r2 loader.FetchResult
	// Cold: all disk. Warm: all memory.
	Script(e, "x", fetch(cl, f, 0, items, &r1), fetch(cl, f, 0, items, &r2))
	e.Run()
	if r1.Misses != 3 || r1.DiskBytes != 3000 {
		t.Fatalf("cold fetch: %+v", r1)
	}
	if r2.Hits != 3 || r2.MemBytes != 3000 || r2.DiskBytes != 0 {
		t.Fatalf("warm fetch: %+v", r2)
	}
	if cl.Servers[0].Disk.TotalBytes() != 3000 {
		t.Fatalf("disk bytes %v", cl.Servers[0].Disk.TotalBytes())
	}
}

func TestPartitionedFetcherRemotePath(t *testing.T) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), 2)
	d := testDataset(1000)
	f := NewPartitionedFetcher(d, cl, d.TotalBytes/2, 1) // aggregate = dataset
	// Warm both caches via owner shards.
	shards := f.OwnerShards()
	Script(e, "warm", fetch(cl, f, 0, shards[0].Items, nil), fetch(cl, f, 1, shards[1].Items, nil))
	e.Run()

	// Steady state: server 0 fetches random items; no disk traffic.
	e2 := e // same engine state is fine; devices accumulate
	var r loader.FetchResult
	all := make([]dataset.ItemID, 1000)
	for i := range all {
		all[i] = dataset.ItemID(i)
	}
	disk0 := cl.Servers[0].Disk.TotalBytes()
	Script(e2, "steady", fetch(cl, f, 0, all, &r))
	e2.Run()
	if r.Misses != 0 {
		t.Fatalf("steady-state misses: %+v", r)
	}
	if r.RemoteHit == 0 || r.Hits == 0 {
		t.Fatalf("expected both local and remote hits: %+v", r)
	}
	if cl.Servers[0].Disk.TotalBytes() != disk0 {
		t.Fatal("steady-state fetch touched local storage")
	}
	if cl.Fabric.NICs[1].TotalBytes() == 0 {
		t.Fatal("remote fetch did not use the serving server's NIC")
	}
}

func TestOwnerShardsCoverDataset(t *testing.T) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), 3)
	d := testDataset(999)
	f := NewPartitionedFetcher(d, cl, d.TotalBytes, 1)
	total := 0
	for _, sh := range f.OwnerShards() {
		total += len(sh.Items)
	}
	if total != 999 {
		t.Fatalf("owner shards cover %d of 999", total)
	}
}

func TestStagingAreaExactlyOncePerJob(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 2, 1e9)
	var consumed [2][]int
	var producer []Step
	for i := 0; i < 5; i++ {
		producer = append(producer, Sleep(1), put(s, &Batch{Index: i, Owner: 0, PreparedBytes: 10}))
	}
	Script(e, "producer", producer...)
	for j := 0; j < 2; j++ {
		var consumer []Step
		for i := 0; i < 5; i++ {
			consumer = append(consumer, get(s, j, i), Do(func(*sim.Proc) { consumed[j] = append(consumed[j], i) }))
		}
		Script(e, "consumer", consumer...)
	}
	e.Run()
	for j := 0; j < 2; j++ {
		if len(consumed[j]) != 5 {
			t.Fatalf("job %d consumed %d", j, len(consumed[j]))
		}
	}
	p, c, ev := s.Counters()
	if p != 5 || c != 10 || ev != 5 {
		t.Fatalf("counters: produced=%d consumed=%d evicted=%d", p, c, ev)
	}
	if s.UsedBytes() != 0 {
		t.Fatalf("staging leaked %v bytes", s.UsedBytes())
	}
}

func TestStagingAreaEvictsOnlyAfterAllJobsUse(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 3, 1e9)
	Script(e, "p", put(s, &Batch{Index: 0, PreparedBytes: 7}))
	got := 0
	for j := 0; j < 3; j++ {
		Script(e, "c", Sleep(float64(j+1)), get(s, j, 0), Do(func(*sim.Proc) {
			got++
			if j < 2 && s.UsedBytes() == 0 {
				t.Errorf("batch evicted before all jobs consumed it")
			}
		}))
	}
	e.Run()
	if got != 3 || s.UsedBytes() != 0 {
		t.Fatalf("got=%d used=%v", got, s.UsedBytes())
	}
}

func TestStagingAreaCapacityBlocksProducer(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 1, 25) // room for 2 batches of 10
	var putTimes []float64
	var producer, consumer []Step
	for i := 0; i < 3; i++ {
		producer = append(producer, put(s, &Batch{Index: i, PreparedBytes: 10}),
			Do(func(p *sim.Proc) { putTimes = append(putTimes, p.Now()) }))
		consumer = append(consumer, Sleep(10), get(s, 0, i))
	}
	Script(e, "p", producer...)
	Script(e, "c", consumer...)
	e.Run()
	if putTimes[2] != 10 {
		t.Fatalf("third put at %v, want blocked until 10", putTimes[2])
	}
	if s.PeakBytes() > 25 {
		t.Fatalf("peak %v exceeded capacity", s.PeakBytes())
	}
}

func TestStagingMemTrace(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 1, 1e9)
	s.EnableMemTrace("staging")
	Script(e, "p", put(s, &Batch{Index: 0, PreparedBytes: 10}), Sleep(1), get(s, 0, 0))
	e.Run()
	if s.MemTrace.Len() != 2 {
		t.Fatalf("trace points %d, want 2", s.MemTrace.Len())
	}
}

func TestFailureDetectorRecoversDeadJob(t *testing.T) {
	e := sim.New()
	nJobs := 2
	s := NewStagingArea(e, nJobs, 1e9)
	// Job 0 produces even batches; job 1 (owner of odd batches) dies
	// after batch 1. Consumers need batches 0..5.
	dead := false
	var producer0 []Step
	for i := 0; i < 6; i += 2 {
		producer0 = append(producer0, Sleep(1), put(s, &Batch{Index: i, Owner: 0, PreparedBytes: 1}))
	}
	Script(e, "producer0", producer0...)
	Script(e, "producer1", Sleep(1), put(s, &Batch{Index: 1, Owner: 1, PreparedBytes: 1}),
		Do(func(*sim.Proc) { dead = true })) // dies before batch 3
	fd := &FailureDetector{
		Staging: s,
		Timeout: 5,
		Alive:   func(job int) bool { return !(job == 1 && dead) },
		Recover: func(job int) {
			Script(e, "recovery",
				Sleep(1), put(s, &Batch{Index: 3, Owner: job, PreparedBytes: 1}),
				Sleep(1), put(s, &Batch{Index: 5, Owner: job, PreparedBytes: 1}))
		},
	}
	fd.Spawn(e, 200)
	done := make([]bool, nJobs)
	for j := 0; j < nJobs; j++ {
		var consumer []Step
		for i := 0; i < 6; i++ {
			consumer = append(consumer, get(s, j, i))
		}
		Script(e, "consumer", append(consumer, Do(func(*sim.Proc) { done[j] = true }))...)
	}
	e.Run()
	if !done[0] || !done[1] {
		t.Fatalf("consumers stuck after producer failure: %v", done)
	}
	if len(fd.Detected) != 1 || fd.Detected[0] != 1 {
		t.Fatalf("detected = %v, want [1]", fd.Detected)
	}
}

func TestFailureDetectorIgnoresAliveJobs(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 2, 1e9)
	fd := &FailureDetector{
		Staging: s,
		Timeout: 2,
		Alive:   func(int) bool { return true }, // just slow, not dead
	}
	fd.Spawn(e, 30)
	Script(e, "slow-producer",
		Sleep(20), put(s, &Batch{Index: 0, PreparedBytes: 1}),
		Sleep(1), put(s, &Batch{Index: 1, PreparedBytes: 1}))
	for j := 0; j < 2; j++ {
		Script(e, "c", get(s, j, 0), get(s, j, 1))
	}
	e.Run()
	if len(fd.Detected) != 0 {
		t.Fatalf("false positive: detected %v", fd.Detected)
	}
}

func TestPartitionedFetchOrdersOfMagnitude(t *testing.T) {
	// Remote DRAM over 40GbE must beat local HDD for OpenImages-sized
	// items — the premise of partitioned caching (§4.2).
	e := sim.New()
	spec := cluster.ConfigHDD1080Ti()
	cl := cluster.Build(e, spec, 2)
	d := &dataset.Dataset{Name: "t", NumItems: 100, TotalBytes: 100 * 300 * stats.KiB}
	f := NewPartitionedFetcher(d, cl, d.TotalBytes/2, 1)
	shards := f.OwnerShards()
	Script(e, "warm", fetch(cl, f, 0, shards[0].Items, nil), fetch(cl, f, 1, shards[1].Items, nil))
	e.Run()

	// Time fetching server 1's shard from server 0 (all remote).
	var remoteT float64
	start := e.Now()
	Script(e, "remote", fetch(cl, f, 0, shards[1].Items, nil), Do(func(p *sim.Proc) { remoteT = p.Now() - start }))
	e.Run()
	diskT := 0.0
	for _, id := range shards[1].Items {
		sz := d.Sizes().Bytes(id)
		diskT += spec.Disk.SeekTime + sz/spec.Disk.SeqBW
	}
	if remoteT >= diskT/3 {
		t.Fatalf("remote fetch %.3fs not clearly faster than HDD %.3fs", remoteT, diskT)
	}
}
