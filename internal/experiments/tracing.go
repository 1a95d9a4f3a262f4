package experiments

import (
	"strconv"

	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// traceEpochs records a finished run's per-epoch stall attribution as
// simulation-clock sub-spans of sp: one epoch span per epoch, each split
// into gpu_busy / fetch_stall / prep_stall via EpochStats.PhaseBreakdown
// at the run's configured device bandwidths — the paper's fig-5
// breakdown, drawn on a timeline. Derived from Result.Epochs after the
// run, so the engine's hot path stays tracing-free. No-op on a disabled
// span.
func traceEpochs(sp obs.Span, cfg trainer.Config, res *trainer.Result) {
	if !sp.Enabled() || res == nil {
		return
	}
	diskBW := cfg.Spec.Disk.SeqBW
	netBW := cfg.Spec.Link.RawBW * cfg.Spec.Link.Efficiency
	var t float64
	for i, e := range res.Epochs {
		ep := sp.Sim("epoch", t, e.Duration)
		ep.SetAttr("epoch", strconv.Itoa(i+1))
		gpu, fetch, prep := e.PhaseBreakdown(diskBW, netBW)
		ep.Sim("gpu_busy", t, gpu)
		ep.Sim("fetch_stall", t+gpu, fetch)
		ep.Sim("prep_stall", t+gpu+fetch, prep)
		t += e.Duration
	}
}
