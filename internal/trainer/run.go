package trainer

import (
	"context"
	"fmt"
	"sync"

	"datastall/internal/cluster"
	"datastall/internal/core"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/prep"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// prepped is a staged pre-processed batch flowing producer -> GPU.
type prepped struct {
	rawBytes float64
}

// RunContext executes one training job (single- or multi-server) described
// by cfg and returns its statistics. It validates cfg (a typed *FieldError
// on failure), fills its zero fields with defaults, honors ctx (the
// simulation polls it between events) and streams typed progress events
// to obs.
func RunContext(ctx context.Context, cfg Config, obs ...Observer) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.Resolved()
	eng := sim.New()
	cl := cluster.Build(eng, cfg.Spec, cfg.NumServers)
	rt, err := newJobRuntime(cfg, eng, cl)
	if err != nil {
		return nil, err
	}
	// Time-series collection is requested through the marker observers
	// (DiskTraceObserver / CPUTraceObserver), the sole spelling since the
	// Config trace flags were removed.
	var traceDisk, traceCPU bool
	for _, ob := range obs {
		switch ob.(type) {
		case diskTraceObserver:
			traceDisk = true
		case cpuTraceObserver:
			traceCPU = true
		}
	}
	rt.enableTraces(traceDisk, traceCPU)
	rt.obs = obs
	rt.launch()
	rt.obs.emit(JobStarted{
		Epochs: cfg.Epochs, Servers: cfg.NumServers,
		GPUsPerServer: cfg.GPUsPerServer,
	})
	rt.obs.emit(EpochStarted{Epoch: 0})
	if err := eng.RunContext(ctx, sim.DefaultCancelPoll); err != nil {
		return nil, err
	}
	res := rt.result()
	rt.obs.emit(JobEnded{Time: res.TotalTime, Result: res})
	rt.release()
	return res, nil
}

// orderBufs holds the epoch-order buffers of finished runs (see release).
var orderBufs sync.Pool // of *[]dataset.ItemID

// release hands a finished run's per-item buffers, its page caches' slot
// arrays and its epoch-order buffer, to later runs: a sweep's cells share
// a dataset, so each would otherwise allocate and drop its own. rt must
// not be used after.
func (rt *jobRuntime) release() {
	if f, ok := rt.fetcher.(*loader.PageCacheFetcher); ok {
		f.Release()
	}
	if buf := rt.pl.buf; buf != nil {
		buf = buf[:0]
		orderBufs.Put(&buf)
	}
	rt.pl = epochPlan{}
}

// jobRuntime holds the live state of one running job.
type jobRuntime struct {
	cfg     Config
	eng     *sim.Engine
	cl      *cluster.Cluster
	fetcher loader.Fetcher
	// ownerShards is the epoch-0 partitioned-cache population assignment
	// (CoorDL distributed only).
	ownerShards []dataset.Shard
	src         *orderSource

	prepCfg   prep.Config
	gpuPrepOn bool
	// prepRatePerGPU is the aggregate prep throughput of one GPU's
	// thread share; DALI parallelizes within a batch, so each batch is
	// processed at the full rate through a per-GPU prep server.
	prepRatePerGPU  float64
	prepSrv         [][]*sim.BandwidthServer // [server][gpu]
	producersPerGPU int

	iterTime  float64 // GPU compute per iteration
	commExtra float64 // unoverlapped gradient-exchange time per iteration
	commBytes float64 // per-server bytes exchanged per iteration

	barrier *sim.Barrier
	// epochBarrier synchronizes producers and consumers at epoch
	// boundaries (samplers re-shuffle and worker pools restart per epoch
	// in PyTorch/DALI), which also keeps per-epoch counters exact.
	epochBarrier *sim.Barrier
	stores       [][]*sim.Store[prepped] // [server][gpu]

	pl epochPlan // the current epoch's; see plan

	// Cumulative counters (single-threaded simulation: plain fields).
	fetch loader.FetchResult

	// Per-epoch snapshots taken by the coordinator GPU.
	snaps []snapshot

	traceDisk bool
	cpuTrace  *stats.TimeSeries

	// obs receives typed progress events; nil-safe (emit on an empty list
	// is a no-op), so a run without observers pays nothing.
	obs observers
}

type snapshot struct {
	t         float64
	disk, net float64
	diskReads int64
	fetch     loader.FetchResult
	samples   int
	// occ is the cache occupancy at snapshot time (point-in-time, not a
	// delta like the other fields).
	occ float64
}

// epochPlan is one epoch's per-server item orders plus the iteration count.
// A job keeps a single plan: the job's N GPUs and P producers share one
// shuffle per epoch, and the next epoch's orders are written over this
// one's buffers when the plan owns them.
type epochPlan struct {
	epoch  int
	shards []dataset.Shard // per server
	iters  int
	buf    []dataset.ItemID
	// owned reports that shards and buf are the plan's own, so the next
	// epoch may rewrite them; the first CoorDL epoch's shards alias the
	// static owner shards instead.
	owned bool
}

// orderSource produces per-epoch visit orders for one job. It is built once
// per job — its sampler, and the sampler's one rng, are constructed a single
// time, not once per epoch per process, and write IDs straight into the
// epoch buffer with no materialised shard.
type orderSource struct {
	cfg         Config
	ownerShards []dataset.Shard
	sampler     dataset.Sampler        // single-server jobs
	sharder     *dataset.RandomSampler // multi-server jobs: random per-epoch shards
}

func newOrderSource(cfg Config, ownerShards []dataset.Shard) *orderSource {
	src := &orderSource{cfg: cfg, ownerShards: ownerShards}
	switch {
	case cfg.NumServers > 1:
		src.sharder = dataset.NewWholeRandomSampler(cfg.Dataset, cfg.Seed)
	case cfg.Loader == loader.DALISeq && cfg.FetchMode == Normal:
		src.sampler = dataset.NewWholeSequentialSampler(cfg.Dataset)
	default:
		src.sampler = dataset.NewWholeRandomSampler(cfg.Dataset, cfg.Seed)
	}
	return src
}

// fill rewrites pl as the epoch's plan, reusing its buffers when it owns
// them and, for a new plan, a finished run's order buffer. Orders are
// identical whether or not buffers are reused.
func (src *orderSource) fill(pl *epochPlan, epoch int) {
	// The order buffer is always the plan's own; the shards may alias
	// the owner shards.
	shards, buf := pl.shards, pl.buf
	if !pl.owned {
		shards = nil
	}
	if buf == nil {
		// As with page-cache slots, a pooled buffer over twice the
		// dataset's size is dropped rather than kept alive.
		if p, _ := orderBufs.Get().(*[]dataset.ItemID); p != nil && cap(*p) <= 2*src.cfg.Dataset.NumItems {
			buf = *p
		}
	}
	owned := true
	switch {
	case src.sampler != nil:
		buf = src.sampler.EpochOrderInto(epoch, buf)
		shards = append(shards[:0], dataset.Shard{Items: buf})
	case epoch == 0 && src.ownerShards != nil:
		// CoorDL's first epoch processes the static owner shards so each
		// server populates its partition of the cache (§4.2). The plan
		// aliases them, so it must never be rewritten in place.
		shards, owned = src.ownerShards, false
	default:
		shards, buf = src.sharder.EpochShardsInto(src.cfg.NumServers, epoch, shards, buf)
	}
	*pl = epochPlan{epoch: epoch, shards: shards, buf: buf, owned: owned,
		iters: epochIters(src.cfg, shards)}
}

// epochIters returns the per-server iteration count for the given shards
// (drop-last semantics, bounded by the shortest server shard).
func epochIters(cfg Config, shards []dataset.Shard) int {
	perIter := cfg.Batch * cfg.GPUsPerServer
	iters := len(shards[0].Items) / perIter
	for _, sh := range shards {
		if it := len(sh.Items) / perIter; it < iters {
			iters = it
		}
	}
	return iters
}

func newJobRuntime(cfg Config, eng *sim.Engine, cl *cluster.Cluster) (*jobRuntime, error) {
	var f loader.Fetcher
	var owner []dataset.Shard
	switch {
	case cfg.FetchMode == Synthetic:
		f = loader.SyntheticFetcher{}
	case cfg.FetchMode == FullyCached:
		f = &loader.CachedFetcher{Dataset: cfg.Dataset, Cluster: cl}
	case cfg.RecordBytes > 0:
		f = loader.NewTFRecordFetcher(cfg.Dataset, cl, cfg.CacheBytes, cfg.RecordBytes, cfg.Seed)
	case cfg.Loader == loader.CoorDL && cfg.NumServers > 1 && cfg.DisableRemoteFetch:
		f = core.NewMinIOFetcher(cfg.Dataset, cl, cfg.CacheBytes)
	case cfg.Loader == loader.CoorDL && cfg.NumServers > 1:
		pf := core.NewPartitionedFetcher(cfg.Dataset, cl, cfg.CacheBytes, cfg.Seed)
		f = pf
		owner = pf.OwnerShards()
	case cfg.Loader == loader.CoorDL:
		f = core.NewMinIOFetcher(cfg.Dataset, cl, cfg.CacheBytes)
	default:
		pcf := loader.NewPageCacheFetcher(cfg.Dataset, cl, cfg.CacheBytes, cfg.Seed)
		if cfg.Loader == loader.PyTorchDL {
			pcf.SeeksPerItem = loader.PyTorchSeeksPerItem
		}
		f = pcf
	}
	return newJobRuntimeWith(cfg, eng, cl, f, owner)
}

// newJobRuntimeWith builds a job over a shared (possibly cross-job) fetcher;
// used by RunConcurrent where several jobs contend on one server's caches.
func newJobRuntimeWith(cfg Config, eng *sim.Engine, cl *cluster.Cluster, f loader.Fetcher, owner []dataset.Shard) (*jobRuntime, error) {
	rt := &jobRuntime{cfg: cfg, eng: eng, cl: cl}
	rt.fetcher = f
	rt.ownerShards = owner
	rt.src = newOrderSource(cfg, owner)
	rt.src.fill(&rt.pl, 0)

	rt.prepCfg = cfg.prepConfig()
	rt.gpuPrepOn = rt.prepCfg.GPUPrep
	rt.producersPerGPU = cfg.ThreadsPerGPU
	if rt.producersPerGPU > 4 {
		rt.producersPerGPU = 4
	}
	if rt.producersPerGPU < 1 {
		rt.producersPerGPU = 1
	}
	rt.prepRatePerGPU = prep.Rate(cfg.Model, rt.prepCfg)

	rt.iterTime = cfg.Model.BatchTime(cfg.Spec.Gen, cfg.Batch, rt.gpuPrepOn)
	if cfg.NumServers > 1 {
		s := float64(cfg.NumServers)
		rt.commBytes = 2 * (s - 1) / s * cfg.Model.GradientBytes
		comm := rt.commBytes / cl.NIC(0).EffectiveBW()
		// Gradient exchange overlaps with backward compute; only the
		// excess shows up on the critical path (the paper rolls
		// communication into compute time, §2).
		if extra := comm - 0.5*rt.iterTime; extra > 0 {
			rt.commExtra = extra
		}
	}

	if rt.pl.iters < 1 {
		return nil, fmt.Errorf("trainer: dataset %s too small for %d servers x %d GPUs x batch %d",
			cfg.Dataset.Name, cfg.NumServers, cfg.GPUsPerServer, cfg.Batch)
	}

	rt.barrier = sim.NewBarrier(eng, cfg.NumServers*cfg.GPUsPerServer)
	rt.epochBarrier = sim.NewBarrier(eng,
		cfg.NumServers*cfg.GPUsPerServer*(1+rt.producersPerGPU))
	rt.stores = make([][]*sim.Store[prepped], cfg.NumServers)
	rt.prepSrv = make([][]*sim.BandwidthServer, cfg.NumServers)
	for s := range rt.stores {
		rt.stores[s] = make([]*sim.Store[prepped], cfg.GPUsPerServer)
		rt.prepSrv[s] = make([]*sim.BandwidthServer, cfg.GPUsPerServer)
		for g := range rt.stores[s] {
			rt.stores[s][g] = sim.NewStore[prepped](eng, cfg.PrefetchDepth)
			rt.prepSrv[s][g] = sim.NewBandwidthServer(eng)
		}
	}
	return rt, nil
}

// enableTraces turns on time-series collection; RunContext calls it between
// runtime construction and launch once the observer list is known.
func (rt *jobRuntime) enableTraces(disk, cpu bool) {
	if disk {
		rt.traceDisk = true
		for i, srv := range rt.cl.Servers {
			srv.Disk.EnableTrace(fmt.Sprintf("disk-%d", i))
		}
	}
	if cpu {
		rt.cpuTrace = &stats.TimeSeries{Name: "prep-busy"}
	}
}

// plan returns the epoch's per-server item orders and iteration count,
// computed once per epoch so the job's N GPUs and P producers share one
// shuffle. The job keeps only the current plan: the first process to ask
// for epoch e+1 rewrites it in place, which is safe because every producer
// and consumer has arrived at the epoch barrier, done with epoch e, before
// any of them asks. Asking for an epoch older than the current plan breaks
// that invariant and panics.
func (rt *jobRuntime) plan(epoch int) *epochPlan {
	switch {
	case epoch < rt.pl.epoch:
		panic(fmt.Sprintf("trainer: plan for epoch %d requested after epoch %d's", epoch, rt.pl.epoch))
	case epoch > rt.pl.epoch:
		rt.src.fill(&rt.pl, epoch)
	}
	return &rt.pl
}

// launch spawns all producer and consumer processes, each a state machine
// stepped inline on the engine goroutine: a simulated job starts no
// goroutines.
func (rt *jobRuntime) launch() {
	cfg := rt.cfg
	for s := 0; s < cfg.NumServers; s++ {
		for g := 0; g < cfg.GPUsPerServer; g++ {
			for k := 0; k < rt.producersPerGPU; k++ {
				ps := &producerSM{rt: rt, server: s, g: g, k: k}
				rt.eng.Spawn(fmt.Sprintf("prod-%d-%d-%d", s, g, k), ps.step)
			}
			sm := &consumerSM{rt: rt, server: s, g: g}
			rt.eng.Spawn(fmt.Sprintf("gpu-%d-%d", s, g), sm.step)
		}
	}
}

// producerState enumerates the points where a producer waits; the state
// machine resumes from the matching state.
type producerState uint8

const (
	psEpoch        producerState = iota // start the next epoch
	psTail                              // next owner-shard tail chunk (epoch 0)
	psTailFetch                         // tail chunk's device operations
	psIter                              // next batch or the epoch barrier
	psFetch                             // batch's device operations
	psPrepped                           // woke from the prep server
	psPut                               // trying to stage the prepped batch
	psBarrierWoken                      // woken by the epoch barrier
	psDone
)

// producerSM is producer k of GPU g on server: it fetches and pre-processes
// batches k, k+P, ... of the GPU's share of every epoch, then meets the GPU
// consumers at the epoch barrier.
type producerSM struct {
	rt           *jobRuntime
	server, g, k int
	state        producerState
	epoch        int
	n            int // tail chunk or iteration index
	pl           *epochPlan
	raw          float64 // the staged batch's raw bytes
	since        float64 // first-attempt time of the pending block
	fetch        loader.PlannedFetch
}

// step runs the producer until it waits (registered with a primitive or a
// wake scheduled) or finishes.
func (ps *producerSM) step(p *sim.Proc) {
	rt := ps.rt
	cfg := rt.cfg
	for {
		switch ps.state {
		case psEpoch:
			if ps.epoch >= cfg.Epochs {
				ps.state = psDone
				return
			}
			ps.pl = rt.plan(ps.epoch)
			ps.n = ps.k
			ps.state = psIter
			if ps.epoch == 0 && ps.g == 0 && rt.ownerShards != nil {
				// Partitioned caching populates each server's cache with
				// its *entire* owner shard in the first epoch (§4.2);
				// drop-last truncation must not leave a tail uncached.
				ps.state = psTail
			}
		case psTail:
			tail := ps.pl.shards[ps.server].Items[ps.pl.iters*cfg.Batch*cfg.GPUsPerServer:]
			i := ps.n * cfg.Batch
			if i >= len(tail) {
				ps.n = ps.k
				ps.state = psIter
				continue
			}
			ps.fetch.Start(rt.fetcher, ps.server, tail[i:min(i+cfg.Batch, len(tail))])
			ps.state = psTailFetch
		case psTailFetch:
			if !ps.fetch.Advance(p, rt.cl) {
				return
			}
			rt.fetch.Add(ps.fetch.Result)
			ps.n += rt.producersPerGPU
			ps.state = psTail
		case psIter:
			if ps.n >= ps.pl.iters {
				if !rt.epochBarrier.Arrive(p) {
					ps.since = p.Now()
					ps.state = psBarrierWoken
					return
				}
				ps.epoch++
				ps.state = psEpoch
				continue
			}
			bi := ps.n*cfg.GPUsPerServer + ps.g
			ps.fetch.Start(rt.fetcher, ps.server, ps.pl.shards[ps.server].Items[bi*cfg.Batch:(bi+1)*cfg.Batch])
			ps.state = psFetch
		case psFetch:
			if !ps.fetch.Advance(p, rt.cl) {
				return
			}
			// The epoch-end snapshot reads rt.fetch, so a batch counts
			// once its last device operation has completed.
			res := ps.fetch.Result
			rt.fetch.Add(res)
			ps.raw = res.MemBytes + res.DiskBytes + res.NetBytes
			ps.state = psPut
			ps.since = p.Now()
			if cfg.FetchMode != Synthetic && ps.raw > 0 {
				ps.state = psPrepped
				if p.WakeAt(rt.prepSrv[ps.server][ps.g].RequestAsync(ps.raw, rt.prepRatePerGPU, 0)) {
					return
				}
			}
		case psPrepped:
			if rt.cpuTrace != nil {
				rt.cpuTrace.Add(p.Now(), ps.raw/rt.prepRatePerGPU)
			}
			ps.since = p.Now()
			ps.state = psPut
		case psPut:
			if !rt.stores[ps.server][ps.g].TryPut(p, prepped{rawBytes: ps.raw}, ps.since) {
				return // registered as a putter; re-stepped on wakeup
			}
			ps.n += rt.producersPerGPU
			ps.state = psIter
		case psBarrierWoken:
			rt.epochBarrier.Waited += p.Now() - ps.since
			ps.epoch++
			ps.state = psEpoch
		case psDone:
			return
		}
	}
}

// consumerState enumerates the points where a GPU consumer waits; the state
// machine resumes from the matching state.
type consumerState int

const (
	csInit              consumerState = iota
	csLoop                            // decide: next iteration or epoch end
	csGet                             // trying to pop a prepped batch
	csCompute                         // woke from the iterTime sleep
	csBarrierWoken                    // woken by the iteration barrier
	csAfterBarrier                    // barrier passed; account comm
	csComm                            // woke from the comm-extra sleep
	csEpochBarrierWoken               // woken by the epoch barrier
	csEpochDone                       // epoch barrier passed
	csDone
)

// consumerSM is one GPU consumer: per iteration it takes a prepped batch
// from its store, computes, meets the other GPUs at the iteration barrier
// and, for distributed jobs, pays the unoverlapped gradient exchange; at
// each epoch's end it meets the producers at the epoch barrier.
type consumerSM struct {
	rt        *jobRuntime
	server, g int
	state     consumerState
	epoch     int
	it        int
	samples   int
	pl        *epochPlan
	since     float64 // first-attempt time of the pending block
}

// step runs the consumer until it blocks (registered with a primitive or
// scheduled a wake) or finishes.
func (sm *consumerSM) step(p *sim.Proc) {
	rt := sm.rt
	cfg := rt.cfg
	for {
		switch sm.state {
		case csInit:
			sm.pl = rt.plan(sm.epoch)
			sm.it = 0
			sm.state = csLoop
		case csLoop:
			if sm.it < sm.pl.iters {
				sm.since = p.Now()
				sm.state = csGet
				continue
			}
			sm.samples += sm.pl.iters * cfg.Batch * cfg.GPUsPerServer * cfg.NumServers
			// Snapshot before the epoch barrier: producers are parked
			// there, so no next-epoch I/O has been issued yet.
			if sm.server == 0 && sm.g == 0 {
				rt.endEpoch(sm.samples)
			}
			if !rt.epochBarrier.Arrive(p) {
				sm.since = p.Now()
				sm.state = csEpochBarrierWoken
				return
			}
			sm.state = csEpochDone
		case csGet:
			_, ok, ready := rt.stores[sm.server][sm.g].TryGet(p, sm.since)
			if !ready {
				return // registered as a getter; re-stepped on wakeup
			}
			if !ok {
				sm.state = csDone
				return
			}
			sm.state = csCompute
			p.WakeAfter(rt.iterTime)
			return
		case csCompute:
			if !rt.barrier.Arrive(p) {
				sm.since = p.Now()
				sm.state = csBarrierWoken
				return
			}
			sm.state = csAfterBarrier
		case csBarrierWoken:
			rt.barrier.Waited += p.Now() - sm.since
			sm.state = csAfterBarrier
		case csAfterBarrier:
			if rt.commExtra > 0 {
				if sm.g == 0 {
					rt.cl.NIC(sm.server).AccountBytes(rt.commBytes)
				}
				sm.state = csComm
				p.WakeAfter(rt.commExtra)
				return
			}
			sm.it++
			sm.state = csLoop
		case csComm:
			sm.it++
			sm.state = csLoop
		case csEpochBarrierWoken:
			rt.epochBarrier.Waited += p.Now() - sm.since
			sm.state = csEpochDone
		case csEpochDone:
			sm.epoch++
			if sm.epoch >= cfg.Epochs {
				sm.state = csDone
				return
			}
			sm.pl = rt.plan(sm.epoch)
			sm.it = 0
			sm.state = csLoop
		case csDone:
			return
		}
	}
}

// endEpoch snapshots cumulative counters; called by the coordinator GPU at
// the epoch's final synchronization point. With observers attached it also
// streams the finished epoch's stats (and the next epoch's start).
func (rt *jobRuntime) endEpoch(samples int) {
	var reads int64
	for _, srv := range rt.cl.Servers {
		reads += srv.Disk.TotalRequests()
	}
	net := 0.0
	for _, n := range rt.cl.Fabric.NICs {
		net += n.TotalBytes()
	}
	occ := 0.0
	if cs, ok := rt.fetcher.(cacheSizer); ok {
		occ = cs.CacheUsedBytes()
	}
	rt.snaps = append(rt.snaps, snapshot{
		t:         rt.eng.Now(),
		disk:      rt.cl.TotalDiskBytes(),
		net:       net / 2, // each transfer charged at both endpoints
		diskReads: reads,
		fetch:     rt.fetch,
		samples:   samples,
		occ:       occ,
	})
	if len(rt.obs) == 0 {
		return
	}
	epoch := len(rt.snaps) - 1
	prev := snapshot{}
	if epoch > 0 {
		prev = rt.snaps[epoch-1]
	}
	rt.obs.emit(EpochEnded{
		Time: rt.eng.Now(), Epoch: epoch,
		Stats:          rt.epochStats(prev, rt.snaps[epoch]),
		CacheUsedBytes: occ,
	})
	if epoch+1 < rt.cfg.Epochs {
		rt.obs.emit(EpochStarted{Time: rt.eng.Now(), Epoch: epoch + 1})
	}
}

// epochStats converts two consecutive snapshots into one epoch's stats.
func (rt *jobRuntime) epochStats(prev, s snapshot) EpochStats {
	dur := s.t - prev.t
	epSamples := s.samples - prev.samples
	iters := epSamples / (rt.cfg.Batch * rt.cfg.GPUsPerServer * rt.cfg.NumServers)
	compute := float64(iters) * (rt.iterTime + rt.commExtra)
	es := EpochStats{
		Duration:    dur,
		ComputeTime: compute,
		StallTime:   dur - compute,
		DiskBytes:   s.disk - prev.disk,
		NetBytes:    s.net - prev.net,
		MemBytes:    s.fetch.MemBytes - prev.fetch.MemBytes,
		DiskReads:   int(s.diskReads - prev.diskReads),
		Hits:        s.fetch.Hits - prev.fetch.Hits,
		Misses:      s.fetch.Misses - prev.fetch.Misses,
		RemoteHits:  s.fetch.RemoteHit - prev.fetch.RemoteHit,
		Samples:     epSamples,
		// Occupancy is point-in-time, so it is not differenced.
		CacheUsedBytes: s.occ,
	}
	if es.StallTime < 0 {
		es.StallTime = 0
	}
	return es
}

// result converts snapshots into per-epoch stats.
func (rt *jobRuntime) result() *Result {
	r := &Result{}
	prev := snapshot{}
	for _, s := range rt.snaps {
		r.Epochs = append(r.Epochs, rt.epochStats(prev, s))
		prev = s
	}
	r.TotalDiskBytes = rt.cl.TotalDiskBytes()
	for _, n := range rt.cl.Fabric.NICs {
		r.TotalNetBytes += n.TotalBytes()
	}
	r.TotalTime = rt.eng.Now()
	if rt.traceDisk {
		r.DiskTrace = rt.cl.Servers[0].Disk.Trace
	}
	r.CPUTrace = rt.cpuTrace
	r.steadyState()
	return r
}
