// Package experiments reproduces every table and figure of the paper's
// analysis and evaluation. Each experiment has an ID matching DESIGN.md's
// per-experiment index, runs at a configurable dataset scale (ratios are
// scale-invariant; see DESIGN.md §2), and renders a paper-style table plus a
// flat map of key metrics for tests and EXPERIMENTS.md.
//
// There are two ways to run experiments:
//
//   - the registry (ByID/List/Run) holds the paper's tables and figures;
//     every Run takes a context.Context, and cancellation propagates into
//     the underlying simulations, so a timed-out suite aborts in-flight
//     experiments instead of waiting them out;
//   - declarative Specs (spec.go) describe sweep-shaped scenarios — a base
//     job plus parameter axes plus derived columns — as data. Every registry
//     experiment whose table fits that model carries its Spec literal in its
//     registration, and user scenarios load from JSON (`runsuite -spec
//     file.json`) without touching compiled code.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/memo"
	"datastall/internal/obs"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// Options tunes an experiment run.
type Options struct {
	// Scale shrinks datasets (and caches with them); 1.0 = paper size.
	// Zero selects the experiment's default (fast but stable).
	Scale float64
	// Epochs per training run (0 = experiment default, usually 3).
	Epochs int
	// Seed for all randomized components.
	Seed int64
	// Memo, when non-nil, memoizes every spec-driven case through the
	// content-addressed result cache: cells whose fully-resolved config
	// (CaseKey) is already cached replay their stored trainer.Result
	// instead of simulating, byte-identically. Excluded from JSON — a
	// cache handle is process state, not part of a job's wire identity.
	Memo *memo.Cache `json:"-"`
	// Trace, when enabled, parents a span per spec-driven case (with
	// memo-lookup events and per-epoch stall-attribution sub-spans) under
	// it. Like Memo, it is process state, not wire identity.
	Trace obs.Span `json:"-"`
}

func (o Options) withDefaults(defScale float64) Options {
	if o.Scale == 0 {
		o.Scale = defScale
	}
	if o.Epochs == 0 {
		o.Epochs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Report is an experiment's output.
type Report struct {
	ID    string
	Title string
	// Paper summarizes the published result this reproduces.
	Paper string
	// Table is the rendered result.
	Table *stats.Table
	// Values exposes key metrics by name for tests and EXPERIMENTS.md.
	Values map[string]float64
	// Notes records deviations or caveats.
	Notes string
	// Cases holds the per-cell results captured by spec-driven sweeps
	// (RunSpec), the feed for internal/query. Only experiments with a
	// Spec (see SpecFor) fill it. It is excluded from the default JSON
	// report; pass includeCases to SuiteResult.JSONWith to emit it.
	Cases []*CaseResult
}

func (r *Report) set(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\npaper: %s\n%s", r.ID, r.Title, r.Paper, r.Table.String())
	if r.Notes != "" {
		s += "notes: " + r.Notes + "\n"
	}
	return s
}

// Experiment is a registered table/figure reproduction. Run must honor ctx:
// the simulations it drives return ctx.Err() when the context dies.
type Experiment struct {
	ID    string
	Title string
	Paper string
	// DefaultScale keeps the run fast while preserving ratios.
	DefaultScale float64
	// Spec, when set, is the experiment as data: register points Run at
	// RunSpec over it, so a JSON round-trip of the Spec reproduces the
	// experiment byte for byte (the speccheck gate). Its Name must be ID.
	Spec *Spec
	Run  func(context.Context, Options) (*Report, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	if sp := e.Spec; sp != nil {
		if sp.Name != e.ID {
			panic("experiments: spec " + sp.Name + " registered under id " + e.ID)
		}
		e.Run = func(ctx context.Context, o Options) (*Report, error) { return RunSpec(ctx, sp, o) }
	}
	registry[e.ID] = e
}

// Specs returns the declarative specs of the registry's spec-backed
// experiments, in ID order.
func Specs() []*Spec {
	var out []*Spec
	for _, e := range List() {
		if e.Spec != nil {
			out = append(out, e.Spec)
		}
	}
	return out
}

// SpecFor returns the declarative form of a registry experiment, or nil if
// that experiment is not expressible as a Spec.
func SpecFor(id string) *Spec {
	if e, ok := registry[id]; ok {
		return e.Spec
	}
	return nil
}

// ByID returns a registered experiment.
func ByID(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	return e, nil
}

// List returns all experiment IDs in order.
func List() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run looks up and executes an experiment. ctx cancellation propagates into
// the experiment's simulations, so single-experiment runs honor deadlines
// exactly like suite runs.
func Run(ctx context.Context, id string, o Options) (*Report, error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	o = o.withDefaults(e.DefaultScale)
	r, err := e.Run(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	r.ID, r.Title, r.Paper = e.ID, e.Title, e.Paper
	return r, nil
}

// --- shared helpers ---

// scaled returns the model's default dataset at the experiment scale.
func scaled(m *gpu.Model, o Options) *dataset.Dataset {
	d, err := dataset.ByName(m.DefaultDataset)
	if err != nil {
		panic(err)
	}
	return d.Scale(o.Scale)
}

// cacheFor mirrors the paper's setup: the SKU's 400 GiB cache budget as a
// fraction of the (unscaled) dataset, applied to the scaled dataset.
func cacheFor(d *dataset.Dataset, full *dataset.Dataset, budget float64) float64 {
	frac := budget / full.TotalBytes
	if frac > 1 {
		frac = 1
	}
	return frac * d.TotalBytes
}

// mustRun runs a training config under ctx, propagating errors (including
// ctx.Err() on cancellation).
func mustRun(ctx context.Context, cfg trainer.Config) (*trainer.Result, error) {
	return trainer.RunContext(ctx, cfg)
}

func pct(x float64) float64 { return 100 * x }

func gib(x float64) float64 { return x / stats.GiB }
