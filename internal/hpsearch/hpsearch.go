// Package hpsearch drives hyper-parameter search over simulated training
// jobs, in the style of Ray Tune with Hyperband-like successive halving
// (Appendix E.2.3): sample trials, run them in parallel waves of concurrent
// jobs on one server, score them at epoch boundaries, and keep the best.
package hpsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"datastall/internal/trainer"
)

// Trial is one hyper-parameter candidate.
type Trial struct {
	ID       int
	LR       float64
	Momentum float64
	// Score is the objective after the trial's last rung (higher=better).
	Score float64
	// EpochsRun counts training epochs this trial consumed.
	EpochsRun int
}

// Config describes a search.
type Config struct {
	// Base describes the per-trial training job (model, dataset, SKU,
	// cache, batch). Epochs is overridden per rung.
	Base trainer.Config
	// NumTrials to sample (Appendix E uses 16).
	NumTrials int
	// ParallelJobs trials run concurrently on the server (= GPUs, 8).
	ParallelJobs int
	// GPUsPerJob for each trial (1 in the paper's macrobenchmark).
	GPUsPerJob int
	// EpochsPerRung is the budget between halvings (1 in Appendix E:
	// "stopping criteria ... the completion of one epoch").
	EpochsPerRung int
	// Rungs of successive halving; 1 reproduces the paper's setting.
	Rungs int
	// KeepFraction of trials surviving each rung.
	KeepFraction float64
	// Coordinated selects CoorDL's coordinated prep for each wave.
	Coordinated bool
	// CoordUsePageCache makes coordinated waves fetch through the OS page
	// cache instead of MinIO (trainer.ConcurrentConfig.CoordUsePageCache).
	CoordUsePageCache bool
	Seed              int64
}

func (c Config) withDefaults() Config {
	if c.NumTrials == 0 {
		c.NumTrials = 16
	}
	if c.ParallelJobs == 0 {
		c.ParallelJobs = 8
	}
	if c.GPUsPerJob == 0 {
		c.GPUsPerJob = 1
	}
	if c.EpochsPerRung == 0 {
		c.EpochsPerRung = 1
	}
	if c.Rungs == 0 {
		c.Rungs = 1
	}
	if c.KeepFraction == 0 {
		c.KeepFraction = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result reports a finished search.
type Result struct {
	// SearchSeconds is the simulated wall-clock time of the whole search.
	SearchSeconds float64
	// Best is the winning trial.
	Best Trial
	// Trials holds all sampled trials with final scores.
	Trials []Trial
	// TotalEpochs is the aggregate epoch count across trials.
	TotalEpochs int
	// TotalDiskBytes is storage I/O across all waves.
	TotalDiskBytes float64
	// Waves is the number of concurrent-job waves executed.
	Waves int
}

// objective is a deterministic synthetic validation-accuracy surface over
// (lr, momentum) with trial-specific noise: search algorithms need a
// landscape to rank trials, and the pipeline's performance is independent
// of it.
func objective(t Trial, epochs int, rng *rand.Rand) float64 {
	// Peak near lr=0.1, momentum=0.9.
	d := math.Pow(math.Log10(t.LR)-math.Log10(0.1), 2) + 4*math.Pow(t.Momentum-0.9, 2)
	base := 0.75 * math.Exp(-d)
	growth := 1 - math.Exp(-float64(epochs)/3)
	return base*growth + 0.01*rng.NormFloat64()
}

// Run executes the search and returns timing plus the winning trial. ctx
// cancellation aborts the in-flight wave and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := make([]Trial, cfg.NumTrials)
	for i := range trials {
		trials[i] = Trial{
			ID:       i,
			LR:       math.Pow(10, -3+2.5*rng.Float64()), // 1e-3 .. ~0.3
			Momentum: 0.8 + 0.19*rng.Float64(),
		}
	}

	res := &Result{}
	alive := make([]*Trial, len(trials))
	for i := range trials {
		alive[i] = &trials[i]
	}

	for rung := 0; rung < cfg.Rungs && len(alive) > 0; rung++ {
		// Run the surviving trials in waves of ParallelJobs.
		for start := 0; start < len(alive); start += cfg.ParallelJobs {
			end := start + cfg.ParallelJobs
			if end > len(alive) {
				end = len(alive)
			}
			wave := alive[start:end]
			base := cfg.Base
			base.Epochs = cfg.EpochsPerRung
			cr, err := trainer.RunConcurrentContext(ctx, trainer.ConcurrentConfig{
				Base:              base,
				NumJobs:           len(wave),
				GPUsPerJob:        cfg.GPUsPerJob,
				Coordinated:       cfg.Coordinated,
				CoordUsePageCache: cfg.CoordUsePageCache,
			})
			if err != nil {
				return nil, fmt.Errorf("hpsearch wave: %w", err)
			}
			waveTime := 0.0
			for _, jr := range cr.Jobs {
				if jr.TotalTime > waveTime {
					waveTime = jr.TotalTime
				}
			}
			res.SearchSeconds += waveTime
			res.TotalDiskBytes += cr.TotalDiskBytes
			res.Waves++
			for _, t := range wave {
				t.EpochsRun += cfg.EpochsPerRung
				t.Score = objective(*t, t.EpochsRun, rng)
				res.TotalEpochs += cfg.EpochsPerRung
			}
		}
		// Successive halving: keep the best fraction.
		sort.Slice(alive, func(i, j int) bool { return alive[i].Score > alive[j].Score })
		keep := int(math.Ceil(float64(len(alive)) * cfg.KeepFraction))
		if rung < cfg.Rungs-1 {
			alive = alive[:keep]
		}
	}

	res.Trials = trials
	best := trials[0]
	for _, t := range trials[1:] {
		if t.Score > best.Score {
			best = t
		}
	}
	res.Best = best
	return res, nil
}
