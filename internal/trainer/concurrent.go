package trainer

import (
	"context"
	"fmt"

	"datastall/internal/cluster"
	"datastall/internal/core"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/prep"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// ConcurrentConfig describes a hyper-parameter-search workload: NumJobs
// concurrent jobs on one server, each training the same model on the same
// dataset with GPUsPerJob GPUs (§3.3.1, §5.3).
type ConcurrentConfig struct {
	// Base supplies model, dataset, SKU, batch, epochs, framework, cache
	// size and seed. NumServers is forced to 1; GPUsPerServer to
	// GPUsPerJob; ThreadsPerGPU to the job's fair CPU share.
	Base Config

	NumJobs    int
	GPUsPerJob int

	// Coordinated enables CoorDL's coordinated prep (§4.3): the dataset
	// is sharded across jobs, fetched and pre-processed exactly once per
	// epoch, and shared through the staging area. When false, the jobs
	// run independently, contending on the shared page cache, disk, and
	// CPU — the DALI/PyTorch baseline.
	Coordinated bool
	// StagingCapBytes bounds the cross-job staging area (default 5 GiB,
	// the footprint the paper measures in §5.5).
	StagingCapBytes float64
	// TraceStagingMem records the staging memory time series (Fig 20).
	TraceStagingMem bool

	// CoordUsePageCache makes coordinated prep fetch through the OS page
	// cache instead of MinIO — the "coordinated prep alone" configuration
	// of Appendix E.2.3's component breakdown.
	CoordUsePageCache bool

	// KillJob, if >= 0, makes that job's producers die after
	// KillAfterBatches batches (failure-injection for §4.3's detector).
	KillJob          int
	KillAfterBatches int
}

// ConcurrentResult reports a finished multi-job run.
type ConcurrentResult struct {
	// Jobs holds per-job results (durations, throughput, hit rates).
	Jobs []*Result
	// TotalDiskBytes is storage I/O across the whole run.
	TotalDiskBytes float64
	// DiskPerEpoch is steady-state storage I/O per epoch (after warmup).
	DiskPerEpoch float64
	// ReadAmplification is DiskPerEpoch / dataset size: >1 means the
	// server reads the dataset multiple times per epoch (§3.3.1).
	ReadAmplification float64
	// StagingPeakBytes / StagingTrace describe coordinated-prep memory.
	StagingPeakBytes float64
	StagingTrace     *stats.TimeSeries
	// DetectedFailures lists jobs the failure detector declared dead.
	DetectedFailures []int
}

// RunConcurrentContext executes the workload and returns per-job and
// aggregate statistics. It honors ctx: the shared simulation engine polls
// for cancellation between events, so a cancelled context returns
// ctx.Err() promptly (immediately when already cancelled) instead of
// running the jobs to completion.
func RunConcurrentContext(ctx context.Context, cc ConcurrentConfig) (*ConcurrentResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cc, err := cc.resolve()
	if err != nil {
		return nil, err
	}
	if cc.Coordinated {
		return runCoordinated(ctx, cc)
	}
	return runIndependent(ctx, cc)
}

// resolve validates the workload and fills in its defaults.
func (cc ConcurrentConfig) resolve() (ConcurrentConfig, error) {
	if cc.NumJobs < 1 || cc.GPUsPerJob < 1 {
		return cc, fmt.Errorf("trainer: need >= 1 job and GPU per job")
	}
	base := cc.Base
	base.NumServers = 1
	base.GPUsPerServer = cc.GPUsPerJob
	if err := base.Validate(); err != nil {
		return cc, err
	}
	if base.ThreadsPerGPU == 0 {
		perJob := base.Spec.PhysicalCores / cc.NumJobs
		if perJob < 1 {
			perJob = 1
		}
		base.ThreadsPerGPU = perJob / cc.GPUsPerJob
		if base.ThreadsPerGPU < 1 {
			base.ThreadsPerGPU = 1
		}
	}
	base = base.Resolved()
	if cc.NumJobs*cc.GPUsPerJob > base.Spec.NumGPUs {
		return cc, fmt.Errorf("trainer: %d jobs x %d GPUs exceed the server's %d GPUs",
			cc.NumJobs, cc.GPUsPerJob, base.Spec.NumGPUs)
	}
	if cc.StagingCapBytes == 0 {
		cc.StagingCapBytes = 5 * stats.GiB
	}
	if cc.KillJob == 0 && cc.KillAfterBatches == 0 {
		cc.KillJob = -1
	}
	cc.Base = base
	return cc, nil
}

// runIndependent runs NumJobs uncoordinated jobs sharing one server's page
// cache, storage and CPU.
func runIndependent(ctx context.Context, cc ConcurrentConfig) (*ConcurrentResult, error) {
	eng := sim.New()
	cl := cluster.Build(eng, cc.Base.Spec, 1)
	var shared loader.Fetcher
	switch {
	case cc.Base.FetchMode == FullyCached:
		shared = &loader.CachedFetcher{Dataset: cc.Base.Dataset, Cluster: cl}
	case cc.Base.RecordBytes > 0:
		shared = loader.NewTFRecordFetcher(cc.Base.Dataset, cl, cc.Base.CacheBytes, cc.Base.RecordBytes, cc.Base.Seed)
	case cc.Base.Loader == loader.CoorDL:
		// MinIO without coordination (ablation).
		shared = core.NewMinIOFetcher(cc.Base.Dataset, cl, cc.Base.CacheBytes)
	default:
		shared = loader.NewPageCacheFetcher(cc.Base.Dataset, cl, cc.Base.CacheBytes, cc.Base.Seed)
	}
	var rts []*jobRuntime
	for j := 0; j < cc.NumJobs; j++ {
		cfg := cc.Base
		cfg.Seed = cc.Base.Seed + int64(j)*131
		rt, err := newJobRuntimeWith(cfg, eng, cl, shared, nil)
		if err != nil {
			return nil, err
		}
		rt.launch()
		rts = append(rts, rt)
	}
	if err := eng.RunContext(ctx, sim.DefaultCancelPoll); err != nil {
		return nil, err
	}

	res := &ConcurrentResult{TotalDiskBytes: cl.TotalDiskBytes()}
	for _, rt := range rts {
		res.Jobs = append(res.Jobs, rt.result())
	}
	fillDiskAggregates(res, rts[0].snaps, cc.Base)
	return res, nil
}

// fillDiskAggregates derives steady-state disk I/O per epoch from job 0's
// epoch snapshots (jobs progress nearly in lockstep).
func fillDiskAggregates(res *ConcurrentResult, snaps []snapshot, base Config) {
	if len(snaps) >= 2 {
		first := snaps[0].disk
		last := snaps[len(snaps)-1].disk
		res.DiskPerEpoch = (last - first) / float64(len(snaps)-1)
	} else {
		res.DiskPerEpoch = res.TotalDiskBytes
	}
	res.ReadAmplification = res.DiskPerEpoch / base.Dataset.TotalBytes
}

// runCoordinated runs CoorDL's coordinated prep: one fetch+prep sweep per
// epoch shared by all jobs through the staging area.
func runCoordinated(ctx context.Context, cc ConcurrentConfig) (*ConcurrentResult, error) {
	rt := newCoordRuntime(cc)
	if err := rt.eng.RunContext(ctx, sim.DefaultCancelPoll); err != nil {
		return nil, err
	}
	return rt.result(), nil
}

// newCoordRuntime builds a resolved workload's coordinated runtime on a
// fresh engine, with every process spawned.
func newCoordRuntime(cc ConcurrentConfig) *coordRuntime {
	eng := sim.New()
	base := cc.Base
	cl := cluster.Build(eng, base.Spec, 1)
	var fetcher loader.Fetcher
	switch {
	case cc.CoordUsePageCache:
		fetcher = loader.NewPageCacheFetcher(base.Dataset, cl, base.CacheBytes, base.Seed)
	case base.FetchMode == FullyCached:
		fetcher = &loader.CachedFetcher{Dataset: base.Dataset, Cluster: cl}
	default:
		fetcher = core.NewMinIOFetcher(base.Dataset, cl, base.CacheBytes)
	}
	staging := core.NewStagingArea(eng, cc.NumJobs, cc.StagingCapBytes)
	if cc.TraceStagingMem {
		staging.EnableMemTrace("staging-mem")
	}

	rt := &coordRuntime{
		cc: cc, eng: eng, cl: cl, fetcher: fetcher, staging: staging,
		shards: dataset.SplitRandom(base.Dataset, cc.NumJobs, base.Seed),
		orders: make([]jobOrders, cc.NumJobs),
	}
	for j := range rt.orders {
		rt.orders[j].sampler = dataset.NewRandomSampler(rt.shards[j], base.Seed+int64(j)*977)
	}
	rt.setup()
	rt.launch()
	return rt
}

// coordRuntime is the coordinated-prep runtime (§4.3).
type coordRuntime struct {
	cc      ConcurrentConfig
	eng     *sim.Engine
	cl      *cluster.Cluster
	fetcher loader.Fetcher
	staging *core.StagingArea
	shards  []dataset.Shard

	batchesPerJob int                    // per epoch; total = NumJobs * batchesPerJob
	itersPerGPU   int                    // per epoch, per consumer GPU
	prepRate      float64                // per-job aggregate prep rate (bytes/s)
	prepSrv       []*sim.BandwidthServer // per job: intra-batch parallel prep
	producers     int                    // per job
	prepBatch     float64                // prepared bytes per staged batch
	iterTime      float64

	produced []int // per job, cumulative batches produced
	jobDead  bool
	detector *core.FailureDetector

	// orders holds each job's shard orders: a job's P producers (plus any
	// recovery producer) share one shuffle per epoch instead of each
	// re-deriving an identical permutation. Single-threaded simulation:
	// no lock.
	orders []jobOrders

	// Per-job accounting.
	jobs []*coordJobStats
}

type coordJobStats struct {
	barrier *sim.Barrier
	snaps   []snapshot
	samples int
	fetch   loader.FetchResult
}

func (rt *coordRuntime) setup() {
	cc := rt.cc
	base := cc.Base
	minShard := rt.shards[0].Items
	for _, sh := range rt.shards {
		if len(sh.Items) < len(minShard) {
			minShard = sh.Items
		}
	}
	bpj := len(minShard) / base.Batch
	// Total staged batches per epoch must divide evenly across each
	// job's GPUs.
	for bpj > 0 && (bpj*cc.NumJobs)%cc.GPUsPerJob != 0 {
		bpj--
	}
	rt.batchesPerJob = bpj
	rt.itersPerGPU = bpj * cc.NumJobs / cc.GPUsPerJob

	// Coordinated prep preps each shard once using the job's full CPU
	// share; all jobs together apply the server's full core count.
	pc := base.prepConfig()
	pc.Threads = base.ThreadsPerGPU * cc.GPUsPerJob // whole job's threads
	physPerJob := base.Spec.PhysicalCores / cc.NumJobs
	if physPerJob < 1 {
		physPerJob = 1
	}
	if pc.PhysicalCores = physPerJob; pc.PhysicalCores > pc.Threads {
		pc.PhysicalCores = pc.Threads
	}
	pc.NumGPUs = cc.GPUsPerJob
	rt.prepRate = prep.Rate(base.Model, pc)
	rt.producers = pc.Threads
	if rt.producers > 4 {
		rt.producers = 4
	}
	rt.prepBatch = float64(base.Batch) * base.Model.PreparedBytes
	rt.iterTime = base.Model.BatchTime(base.Spec.Gen, base.Batch, pc.GPUPrep)

	rt.produced = make([]int, cc.NumJobs)
	for j := 0; j < cc.NumJobs; j++ {
		rt.jobs = append(rt.jobs, &coordJobStats{
			barrier: sim.NewBarrier(rt.eng, cc.GPUsPerJob),
		})
		rt.prepSrv = append(rt.prepSrv, sim.NewBandwidthServer(rt.eng))
	}
}

// launch spawns every job's producers and GPU consumers, plus the failure
// detector when a job is to be killed, all as state machines.
func (rt *coordRuntime) launch() {
	cc := rt.cc
	for j := 0; j < cc.NumJobs; j++ {
		for k := 0; k < rt.producers; k++ {
			ps := &coordProducerSM{rt: rt, j: j, n: k, restart: k, stride: rt.producers}
			rt.eng.Spawn(fmt.Sprintf("coord-prod-%d-%d", j, k), ps.step)
		}
		for g := 0; g < cc.GPUsPerJob; g++ {
			cs := &coordConsumerSM{rt: rt, j: j, g: g}
			rt.eng.Spawn(fmt.Sprintf("coord-gpu-%d-%d", j, g), cs.step)
		}
	}
	if cc.KillJob >= 0 {
		rt.detector = &core.FailureDetector{
			Staging: rt.staging,
			Timeout: 10 * rt.iterTime,
			Alive:   func(job int) bool { return !(job == cc.KillJob && rt.jobDead) },
			Recover: func(job int) {
				rt.staging.RemoveJob(job)
				rt.eng.Spawn("coord-recovery", rt.recoveryProducer(job).step)
			},
		}
		horizon := float64(rt.itersPerGPU*cc.Base.Epochs) * rt.iterTime * 50
		rt.detector.Spawn(rt.eng, horizon)
	}
}

// jobOrders holds one job's shard sampler and its last two epoch orders:
// the order for epoch e is written over epoch e-2's buffer. Two, not one,
// because a recovery producer can lag its job by an epoch.
type jobOrders struct {
	sampler *dataset.RandomSampler
	epochs  [2]int
	bufs    [2][]dataset.ItemID // by epoch parity; nil until first use
}

// shardOrder returns job j's shard order for an epoch, computed once per
// epoch so the job's producers shuffle once between them. No process
// still reads the epoch-2 order it overwrites: every live job has finished
// epoch e-1 before a producer may start epoch e. Asking for an epoch two
// or more behind the job's newest would overwrite an order in use, so it
// panics.
func (rt *coordRuntime) shardOrder(j, epoch int) []dataset.ItemID {
	o := &rt.orders[j]
	k := epoch & 1
	switch {
	case o.bufs[k] == nil || o.epochs[k] < epoch:
		o.bufs[k] = o.sampler.EpochOrderInto(epoch, o.bufs[k])
		o.epochs[k] = epoch
	case o.epochs[k] > epoch:
		panic(fmt.Sprintf("trainer: job %d's order for epoch %d requested after epoch %d's", j, epoch, o.epochs[k]))
	}
	return o.bufs[k]
}

// coordProdState enumerates the points where a coordinated producer waits.
type coordProdState uint8

const (
	cpEpoch   coordProdState = iota // waiting for every live job to finish the last epoch
	cpBatch                         // next batch or the epoch's end
	cpFetch                         // batch's device operations
	cpPrepped                       // woke from the prep server
	cpStaged                        // woke from the shared-memory copy
	cpPut                           // trying to stage the batch
	cpResume                        // recovery: pick up where the dead job stopped
	cpDone
)

// coordProducerSM fetches and preps job j's shard, staging batches for all
// jobs: batches n, n+stride, ... of each epoch's shard order. Producer k of
// a job's P starts every epoch at batch k with stride P. A recovery
// producer takes over a dead job's shard from the batch it stopped at, with
// stride 1; its batches are not counted in the job's fetch stats.
type coordProducerSM struct {
	rt       *coordRuntime
	j        int
	recovery bool
	stride   int
	restart  int // n at the start of each later epoch
	state    coordProdState
	epoch    int
	n        int
	order    []dataset.ItemID
	batch    *core.Batch
	fetch    loader.PlannedFetch
}

// recoveryProducer returns the producer that takes over dead job j's shard.
func (rt *coordRuntime) recoveryProducer(j int) *coordProducerSM {
	return &coordProducerSM{rt: rt, j: j, recovery: true, stride: 1, state: cpResume}
}

// step runs the producer until it waits or finishes.
func (ps *coordProducerSM) step(p *sim.Proc) {
	rt := ps.rt
	cc := rt.cc
	base := cc.Base
	for {
		switch ps.state {
		case cpResume:
			done := rt.produced[ps.j]
			ps.epoch, ps.n = done/rt.batchesPerJob, done%rt.batchesPerJob
			ps.state = cpEpoch
		case cpEpoch:
			if ps.epoch >= base.Epochs {
				ps.state = cpDone
				return
			}
			if !rt.staging.TryEpochStart(p, ps.epoch) {
				return
			}
			ps.order = rt.shardOrder(ps.j, ps.epoch)
			ps.state = cpBatch
		case cpBatch:
			if ps.n >= rt.batchesPerJob {
				ps.epoch++
				ps.n = ps.restart
				ps.state = cpEpoch
				continue
			}
			if !ps.recovery && cc.KillJob == ps.j && rt.produced[ps.j] >= cc.KillAfterBatches {
				rt.jobDead = true
				ps.state = cpDone
				return
			}
			ps.fetch.Start(rt.fetcher, 0, ps.order[ps.n*base.Batch:(ps.n+1)*base.Batch])
			ps.state = cpFetch
		case cpFetch:
			if !ps.fetch.Advance(p, rt.cl) {
				return
			}
			res := ps.fetch.Result
			if !ps.recovery {
				rt.jobs[ps.j].fetch.Add(res)
			}
			raw := res.MemBytes + res.DiskBytes + res.NetBytes
			ps.state = cpPrepped
			if p.WakeAt(rt.prepSrv[ps.j].RequestAsync(raw, rt.prepRate, 0)) {
				return
			}
		case cpPrepped:
			// Write the prepared batch into shared memory.
			ps.state = cpStaged
			if p.WakeAt(rt.cl.Servers[0].Staging.RequestAsync(rt.prepBatch, base.Spec.StagingBW, 0)) {
				return
			}
		case cpStaged:
			ps.batch = &core.Batch{
				Index: ps.epoch*cc.NumJobs*rt.batchesPerJob + ps.n*cc.NumJobs + ps.j,
				Owner: ps.j, Items: ps.order[ps.n*base.Batch : (ps.n+1)*base.Batch],
				PreparedBytes: rt.prepBatch,
			}
			ps.state = cpPut
		case cpPut:
			if !rt.staging.TryPut(p, ps.batch) {
				return
			}
			ps.batch = nil
			if !ps.recovery {
				rt.produced[ps.j]++
			}
			ps.n += ps.stride
			ps.state = cpBatch
		case cpDone:
			return
		}
	}
}

// coordConsState enumerates the points where a coordinated consumer waits.
type coordConsState uint8

const (
	ccIter         coordConsState = iota // next iteration or the epoch's end
	ccGet                                // waiting for a staged batch
	ccCopied                             // woke from the shared-memory copy
	ccComputed                           // woke from the iteration's compute
	ccBarrierWoken                       // woken by the job's iteration barrier
	ccDone
)

// coordConsumerSM is GPU g of job j: it reads every staged batch of each
// epoch exactly once.
type coordConsumerSM struct {
	rt    *coordRuntime
	j, g  int
	state coordConsState
	epoch int
	it    int
	since float64 // start of the pending wait
}

// step runs the consumer until it waits or finishes.
func (cs *coordConsumerSM) step(p *sim.Proc) {
	rt := cs.rt
	cc := rt.cc
	base := cc.Base
	js := rt.jobs[cs.j]
	for {
		switch cs.state {
		case ccIter:
			if cs.epoch >= base.Epochs {
				cs.state = ccDone
				return
			}
			if cs.it >= rt.itersPerGPU {
				js.samples += rt.itersPerGPU * base.Batch * cc.GPUsPerJob
				if cs.g == 0 {
					js.snaps = append(js.snaps, snapshot{
						t:       rt.eng.Now(),
						disk:    rt.cl.TotalDiskBytes(),
						fetch:   js.fetch,
						samples: js.samples,
					})
					rt.staging.JobEpochDone(cs.epoch)
				}
				cs.epoch++
				cs.it = 0
				continue
			}
			if cc.KillJob == cs.j && rt.jobDead {
				cs.state = ccDone // the killed job's consumers exit too
				return
			}
			cs.state = ccGet
		case ccGet:
			lo := cs.epoch * cc.NumJobs * rt.batchesPerJob
			if rt.staging.TryGetAny(p, cs.j, lo, lo+cc.NumJobs*rt.batchesPerJob) == nil {
				return
			}
			// Copy the prepared batch out of shared memory.
			cs.state = ccCopied
			if p.WakeAt(rt.cl.Servers[0].Staging.RequestAsync(rt.prepBatch, base.Spec.StagingBW, 0)) {
				return
			}
		case ccCopied:
			cs.state = ccComputed
			p.WakeAfter(rt.iterTime)
			return
		case ccComputed:
			if !js.barrier.Arrive(p) {
				cs.since = p.Now()
				cs.state = ccBarrierWoken
				return
			}
			cs.it++
			cs.state = ccIter
		case ccBarrierWoken:
			js.barrier.Waited += p.Now() - cs.since
			cs.it++
			cs.state = ccIter
		case ccDone:
			return
		}
	}
}

func (rt *coordRuntime) result() *ConcurrentResult {
	cc := rt.cc
	res := &ConcurrentResult{
		TotalDiskBytes:   rt.cl.TotalDiskBytes(),
		StagingPeakBytes: rt.staging.PeakBytes(),
		StagingTrace:     rt.staging.MemTrace,
	}
	if rt.detector != nil {
		res.DetectedFailures = rt.detector.Detected
	}
	for j := range rt.jobs {
		r := &Result{}
		prev := snapshot{}
		for _, s := range rt.jobs[j].snaps {
			dur := s.t - prev.t
			epSamples := s.samples - prev.samples
			iters := epSamples / (cc.Base.Batch * cc.GPUsPerJob)
			compute := float64(iters) * rt.iterTime
			es := EpochStats{
				Duration: dur, ComputeTime: compute, StallTime: dur - compute,
				DiskBytes: s.disk - prev.disk,
				Hits:      s.fetch.Hits - prev.fetch.Hits,
				Misses:    s.fetch.Misses - prev.fetch.Misses,
				Samples:   epSamples,
			}
			if es.StallTime < 0 {
				es.StallTime = 0
			}
			r.Epochs = append(r.Epochs, es)
			prev = s
		}
		r.TotalDiskBytes = res.TotalDiskBytes
		r.TotalTime = rt.eng.Now()
		r.steadyState()
		res.Jobs = append(res.Jobs, r)
	}
	fillDiskAggregates(res, rt.jobs[0].snaps, cc.Base)
	return res
}
