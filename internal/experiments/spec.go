// Declarative scenario specs: a sweep-shaped experiment — base job, named
// parameter axes, derived table columns — described as data instead of code.
// Specs JSON-(un)marshal losslessly, so the same machinery runs both the
// registry's sweep-shaped figures (Spec literals in their registrations) and
// user-authored scenario files (`runsuite -spec f.json`) that exist nowhere
// in compiled code.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/prep"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// JobSpec is the JSON-friendly description of one training job: every field
// is a name or a plain number, resolved against the model/dataset/SKU
// catalogs at run time. The zero value of each field means "use the
// default" — the same defaults the trainer applies.
type JobSpec struct {
	// Model is required (e.g. "resnet18"); Dataset defaults to the model's
	// Table 1 dataset; Server to "config-ssd-v100".
	Model   string `json:"model,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Server  string `json:"server,omitempty"`
	// Loader: "dali-shuffle" (default), "dali-seq", "pytorch-dl", "coordl".
	Loader string `json:"loader,omitempty"`

	Servers int `json:"servers,omitempty"`
	GPUs    int `json:"gpus,omitempty"`
	Batch   int `json:"batch,omitempty"`
	Epochs  int `json:"epochs,omitempty"`
	// ThreadsPerGPU is the prep-thread count per GPU (0 = fair share).
	ThreadsPerGPU int `json:"threads_per_gpu,omitempty"`
	PrefetchDepth int `json:"prefetch_depth,omitempty"`

	// Framework: "dali" (default) or "pytorch".
	Framework string `json:"framework,omitempty"`
	// GPUPrep: "auto" (default), "off", "on".
	GPUPrep string `json:"gpu_prep,omitempty"`
	// FetchMode: "normal" (default), "synthetic", "fully-cached".
	FetchMode string `json:"fetch_mode,omitempty"`

	// CacheFraction sizes the per-server cache as a fraction of the scaled
	// dataset; when zero, CacheBudgetGiB (default 400, the paper's budget)
	// is applied as a fraction of the unscaled dataset — exactly the
	// registry experiments' cacheFor rule.
	CacheFraction  float64 `json:"cache_fraction,omitempty"`
	CacheBudgetGiB float64 `json:"cache_budget_gib,omitempty"`

	// Scale shrinks the dataset (0 = the caller's Options scale; 1 = paper
	// size). Seed seeds all randomness (0 = the caller's Options seed).
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// DisableRemoteFetch turns off partitioned caching's remote path.
	DisableRemoteFetch bool `json:"disable_remote_fetch,omitempty"`
}

// overlay returns s with every non-zero field of patch applied on top.
func (s JobSpec) overlay(patch JobSpec) JobSpec {
	if patch.Model != "" {
		s.Model = patch.Model
	}
	if patch.Dataset != "" {
		s.Dataset = patch.Dataset
	}
	if patch.Server != "" {
		s.Server = patch.Server
	}
	if patch.Loader != "" {
		s.Loader = patch.Loader
	}
	if patch.Servers != 0 {
		s.Servers = patch.Servers
	}
	if patch.GPUs != 0 {
		s.GPUs = patch.GPUs
	}
	if patch.Batch != 0 {
		s.Batch = patch.Batch
	}
	if patch.Epochs != 0 {
		s.Epochs = patch.Epochs
	}
	if patch.ThreadsPerGPU != 0 {
		s.ThreadsPerGPU = patch.ThreadsPerGPU
	}
	if patch.PrefetchDepth != 0 {
		s.PrefetchDepth = patch.PrefetchDepth
	}
	if patch.Framework != "" {
		s.Framework = patch.Framework
	}
	if patch.GPUPrep != "" {
		s.GPUPrep = patch.GPUPrep
	}
	if patch.FetchMode != "" {
		s.FetchMode = patch.FetchMode
	}
	if patch.CacheFraction != 0 {
		s.CacheFraction = patch.CacheFraction
	}
	if patch.CacheBudgetGiB != 0 {
		s.CacheBudgetGiB = patch.CacheBudgetGiB
	}
	if patch.Scale != 0 {
		s.Scale = patch.Scale
	}
	if patch.Seed != 0 {
		s.Seed = patch.Seed
	}
	if patch.DisableRemoteFetch {
		s.DisableRemoteFetch = true
	}
	return s
}

// serverSpec resolves a server name; "" selects the paper's default SKU.
func serverSpec(name string) (cluster.ServerSpec, error) {
	switch name {
	case "", "config-ssd-v100":
		return cluster.ConfigSSDV100(), nil
	case "config-hdd-1080ti":
		return cluster.ConfigHDD1080Ti(), nil
	case "highcpu-v100":
		return cluster.HighCPUV100(), nil
	}
	return cluster.ServerSpec{}, fmt.Errorf("spec: unknown server %q", name)
}

func loaderKind(name string) (loader.Kind, error) {
	switch name {
	case "", "dali-shuffle":
		return loader.DALIShuffle, nil
	case "dali-seq":
		return loader.DALISeq, nil
	case "pytorch-dl":
		return loader.PyTorchDL, nil
	case "coordl":
		return loader.CoorDL, nil
	}
	return 0, fmt.Errorf("spec: unknown loader %q", name)
}

// build resolves the JobSpec into a runnable trainer.Config. o supplies the
// scale/epochs/seed defaults for fields the spec leaves zero.
func (s JobSpec) build(o Options) (trainer.Config, error) {
	if s.Model == "" {
		return trainer.Config{}, fmt.Errorf("spec: job needs a model")
	}
	m, err := gpu.ByName(s.Model)
	if err != nil {
		return trainer.Config{}, fmt.Errorf("spec: %w", err)
	}
	dsName := s.Dataset
	if dsName == "" {
		dsName = m.DefaultDataset
	}
	full, err := dataset.ByName(dsName)
	if err != nil {
		return trainer.Config{}, fmt.Errorf("spec: %w", err)
	}
	spec, err := serverSpec(s.Server)
	if err != nil {
		return trainer.Config{}, err
	}
	kind, err := loaderKind(s.Loader)
	if err != nil {
		return trainer.Config{}, err
	}
	scale := s.Scale
	if scale == 0 {
		scale = o.Scale
	}
	if scale == 0 {
		// Registry runs always arrive with the experiment's default scale
		// filled in; only a user spec can get here. Defaulting to 1 would
		// silently launch a paper-size (hours-long) simulation from a
		// one-line omission, so demand an explicit choice.
		return trainer.Config{}, fmt.Errorf(
			"spec: no dataset scale set; add \"scale\" to the spec's base (1 = paper size, expect long runtimes) or pass -scale")
	}
	if scale < 0 || scale > 1 {
		return trainer.Config{}, fmt.Errorf("spec: scale %v outside (0, 1]", scale)
	}
	d := full.Scale(scale)

	cfg := trainer.Config{
		Model: m, Dataset: d, Spec: spec,
		NumServers: s.Servers, GPUsPerServer: s.GPUs,
		Batch: s.Batch, ThreadsPerGPU: s.ThreadsPerGPU,
		PrefetchDepth: s.PrefetchDepth, Loader: kind,
		DisableRemoteFetch: s.DisableRemoteFetch,
	}
	switch s.Framework {
	case "", "dali":
		cfg.Framework = prep.DALI
	case "pytorch":
		cfg.Framework = prep.PyTorchNative
	default:
		return trainer.Config{}, fmt.Errorf("spec: unknown framework %q", s.Framework)
	}
	switch s.GPUPrep {
	case "", "auto":
		cfg.GPUPrep = trainer.GPUPrepAuto
	case "off":
		cfg.GPUPrep = trainer.GPUPrepOff
	case "on":
		cfg.GPUPrep = trainer.GPUPrepOn
	default:
		return trainer.Config{}, fmt.Errorf("spec: unknown gpu_prep %q", s.GPUPrep)
	}
	switch s.FetchMode {
	case "", "normal":
		cfg.FetchMode = trainer.Normal
	case "synthetic":
		cfg.FetchMode = trainer.Synthetic
	case "fully-cached":
		cfg.FetchMode = trainer.FullyCached
	default:
		return trainer.Config{}, fmt.Errorf("spec: unknown fetch_mode %q", s.FetchMode)
	}
	if s.CacheFraction > 0 {
		cfg.CacheBytes = s.CacheFraction * d.TotalBytes
	} else {
		budget := s.CacheBudgetGiB
		if budget == 0 {
			budget = 400
		}
		cfg.CacheBytes = cacheFor(d, full, budget*stats.GiB)
	}
	cfg.Epochs = s.Epochs
	if cfg.Epochs == 0 {
		cfg.Epochs = o.Epochs
	}
	cfg.Seed = s.Seed
	if cfg.Seed == 0 {
		cfg.Seed = o.Seed
	}
	return cfg, nil
}

// Build resolves the JobSpec into a runnable trainer.Config, exactly as
// RunSpec resolves each sweep cell. o supplies the scale/epochs/seed
// defaults for fields the spec leaves zero (zero Epochs and Seed in o fall
// back to the package defaults, 3 and 1). Exported for embedders that
// accept single-job descriptions: the HTTP job service, which validates
// the resolved config at submission time, and the root package's
// TrainConfig.
func (s JobSpec) Build(o Options) (trainer.Config, error) {
	return s.build(o.withDefaults(o.Scale))
}

// names resolves the display names the row-label columns derive from.
func (s JobSpec) names() (model, ds, server string) {
	model = s.Model
	ds = s.Dataset
	if ds == "" && model != "" {
		if m, err := gpu.ByName(model); err == nil {
			ds = m.DefaultDataset
		}
	}
	server = s.Server
	if server == "" {
		server = "config-ssd-v100"
	}
	return
}

// Case is one named point of a Cases axis: a sparse JobSpec overlay plus
// optional display cells for the table's row-label columns.
type Case struct {
	// Label names the case in Values-key templates ({row}); defaults to
	// the first cell.
	Label string `json:"label,omitempty"`
	// Cells fill the RowHeader columns; when omitted they derive from the
	// resolved job (header "model" -> model name, "dataset", "server").
	Cells []string `json:"cells,omitempty"`
	// Set is the overlay applied to the base job.
	Set JobSpec `json:"set"`
}

// Axis is one swept dimension: either a single parameter with a value list
// (Param/Values) or a list of named multi-field Cases.
type Axis struct {
	// Param is a JobSpec JSON field name ("loader", "servers",
	// "cache_fraction", ...); Values are its JSON values.
	Param  string            `json:"param,omitempty"`
	Values []json.RawMessage `json:"values,omitempty"`
	// Cases is the multi-field alternative to Param/Values.
	Cases []Case `json:"cases,omitempty"`
}

// axisCase is one resolved point of an axis.
type axisCase struct {
	label string
	cells []interface{} // nil => derive from RowHeader
	set   JobSpec
}

// resolve expands the axis into its cases.
func (a *Axis) resolve() ([]axisCase, error) {
	switch {
	case a.Param != "" && len(a.Values) > 0:
		out := make([]axisCase, 0, len(a.Values))
		for _, raw := range a.Values {
			var set JobSpec
			// Marshal the patch instead of concatenating strings: a param
			// name with JSON metacharacters becomes one (unknown) quoted
			// key and fails cleanly, rather than injecting extra fields.
			patch, err := json.Marshal(map[string]json.RawMessage{a.Param: raw})
			if err != nil {
				return nil, fmt.Errorf("spec: axis %q value %s: %w", a.Param, raw, err)
			}
			dec := json.NewDecoder(bytes.NewReader(patch))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&set); err != nil {
				return nil, fmt.Errorf("spec: axis %q value %s: %w", a.Param, raw, err)
			}
			// Overlay treats zero-valued fields as "not set", so an axis
			// value of 0/""/false would silently run the default instead
			// of the swept value and the table would lie. Reject it.
			if set == (JobSpec{}) {
				return nil, fmt.Errorf("spec: axis %q value %s is the field's zero value, which would silently mean \"use the default\"; sweep only non-zero values", a.Param, raw)
			}
			var v interface{}
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, fmt.Errorf("spec: axis %q value %s: %w", a.Param, raw, err)
			}
			out = append(out, axisCase{label: cellString(v), cells: []interface{}{v}, set: set})
		}
		return out, nil
	case len(a.Cases) > 0:
		out := make([]axisCase, 0, len(a.Cases))
		for _, c := range a.Cases {
			ac := axisCase{label: c.Label, set: c.Set}
			for _, cell := range c.Cells {
				ac.cells = append(ac.cells, cell)
			}
			if ac.label == "" && len(c.Cells) > 0 {
				ac.label = c.Cells[0]
			}
			out = append(out, ac)
		}
		return out, nil
	}
	return nil, fmt.Errorf("spec: axis needs either param+values or cases")
}

// cellString renders an axis value for labels and {row} substitution.
func cellString(v interface{}) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return stats.FormatFloat(x)
	}
	return fmt.Sprintf("%v", v)
}

// Column derives one table column from the row's sweep results.
type Column struct {
	// Label is the column header.
	Label string `json:"label"`
	// Metric names the measured quantity: "epoch_s", "samples_per_s",
	// "stall_pct", "hit_pct", "miss_pct", "disk_gib_per_epoch",
	// "disk_gib_per_node", "net_gib_per_epoch", "total_disk_gib",
	// "total_time_s".
	Metric string `json:"metric"`
	// Of selects the sweep case the metric reads (empty when the spec has
	// no sweep axis).
	Of string `json:"of,omitempty"`
	// Over, when set, makes the column a ratio: Metric[Of] / Metric[Over]
	// (speedups).
	Over string `json:"over,omitempty"`
	// Key, when set, also records the cell under this Values key; "{row}"
	// is replaced by the row label.
	Key string `json:"key,omitempty"`
}

// Spec is a declarative sweep: a base job, a row axis, an optional inner
// sweep axis, and the table columns derived from each row's runs.
type Spec struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	// RowHeader names the leading row-label column(s).
	RowHeader []string `json:"row_header"`
	Base      JobSpec  `json:"base"`
	Rows      Axis     `json:"rows"`
	Sweep     *Axis    `json:"sweep,omitempty"`
	Columns   []Column `json:"columns"`
	Notes     string   `json:"notes,omitempty"`
}

// LoadSpec parses a JSON scenario spec, rejecting unknown fields so typos
// in user-authored files fail loudly.
func LoadSpec(data []byte) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := sp.check(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the spec's shape (axes and column references) without
// running it — the same check LoadSpec applies after decoding, exported for
// callers that receive an already-decoded Spec (the HTTP job service
// validates inline spec submissions with it before queueing).
func (sp *Spec) Validate() error { return sp.check() }

// check validates the spec's shape (axes and column references).
func (sp *Spec) check() error {
	if sp.Name == "" {
		return fmt.Errorf("spec: name is required")
	}
	if len(sp.Columns) == 0 {
		return fmt.Errorf("spec %s: at least one column is required", sp.Name)
	}
	rows, err := sp.Rows.resolve()
	if err != nil {
		return fmt.Errorf("spec %s: rows: %w", sp.Name, err)
	}
	// Row label cells must line up with row_header: too many cells panics
	// table rendering, too few silently shifts metric values under the
	// wrong headers. Cases that omit explicit cells derive them from the
	// resolved job, which only works for the recognized header names.
	rowLabels := map[string]bool{}
	for i, row := range rows {
		if row.cells == nil {
			for _, h := range sp.RowHeader {
				switch h {
				case "model", "dataset", "server":
				default:
					return fmt.Errorf("spec %s: rows case %d has no cells and row_header %q is not derivable (use \"model\"/\"dataset\"/\"server\", or give the case explicit cells)",
						sp.Name, i, h)
				}
			}
		} else if len(row.cells) != len(sp.RowHeader) {
			return fmt.Errorf("spec %s: rows case %d has %d cell(s) for %d row_header column(s)",
				sp.Name, i, len(row.cells), len(sp.RowHeader))
		}
		// Cells-less cases resolve their label at run time (from the
		// derived first cell); RunSpec re-checks uniqueness after that.
		if row.label != "" {
			if rowLabels[row.label] {
				return fmt.Errorf("spec %s: duplicate rows label %q (labels key the {row} substitution and must be unique)",
					sp.Name, row.label)
			}
			rowLabels[row.label] = true
		}
	}
	sweepLabels := map[string]bool{"": sp.Sweep == nil}
	if sp.Sweep != nil {
		cases, err := sp.Sweep.resolve()
		if err != nil {
			return fmt.Errorf("spec %s: sweep: %w", sp.Name, err)
		}
		for _, c := range cases {
			if sweepLabels[c.label] {
				return fmt.Errorf("spec %s: duplicate sweep label %q (columns reference sweep cases by label, so labels must be unique)",
					sp.Name, c.label)
			}
			sweepLabels[c.label] = true
		}
	}
	for _, col := range sp.Columns {
		if !validMetric(col.Metric) {
			return fmt.Errorf("spec %s: column %q: unknown metric %q", sp.Name, col.Label, col.Metric)
		}
		if !sweepLabels[col.Of] {
			return fmt.Errorf("spec %s: column %q: %q is not a sweep case", sp.Name, col.Label, col.Of)
		}
		if col.Over != "" && !sweepLabels[col.Over] {
			return fmt.Errorf("spec %s: column %q: %q is not a sweep case", sp.Name, col.Label, col.Over)
		}
	}
	return nil
}

func validMetric(name string) bool {
	switch name {
	case "epoch_s", "samples_per_s", "stall_pct", "hit_pct", "miss_pct",
		"disk_gib_per_epoch", "disk_gib_per_node", "net_gib_per_epoch",
		"total_disk_gib", "total_time_s":
		return true
	}
	return false
}

func metricValue(name string, res *trainer.Result, servers int) float64 {
	if servers < 1 {
		servers = 1
	}
	switch name {
	case "epoch_s":
		return res.EpochTime
	case "samples_per_s":
		return res.Throughput
	case "stall_pct":
		return pct(res.StallFraction)
	case "hit_pct":
		return pct(res.HitRate)
	case "miss_pct":
		return pct(1 - res.HitRate)
	case "disk_gib_per_epoch":
		return gib(res.DiskPerEpoch)
	case "disk_gib_per_node":
		return gib(res.DiskPerEpoch / float64(servers))
	case "net_gib_per_epoch":
		return gib(res.NetPerEpoch)
	case "total_disk_gib":
		return gib(res.TotalDiskBytes)
	case "total_time_s":
		return res.TotalTime
	}
	return 0
}

// RunSpec executes a declarative spec under ctx: the cartesian product of
// the row axis and the sweep axis, one simulation per unique cell,
// assembled into a Report exactly as a hand-written experiment would build
// it. obs observers are attached to every underlying training run
// (progress streaming).
//
// It is the grid split with the one cell executor in the middle —
// enumerate, Execute, assemble — the same steps the job service runs
// locally and scatters across a fleet, which is what makes their reports
// byte-identical to this one. With Options.Memo set, unique cells are
// looked up in, and their fresh results stored into, the content-addressed
// result cache.
func RunSpec(ctx context.Context, sp *Spec, o Options, obs ...trainer.Observer) (*Report, error) {
	g, err := newSpecGrid(sp, o)
	if err != nil {
		return nil, err
	}
	results, err := Executor{Run: LocalRunner(g.o, obs...)}.Execute(ctx, g.cases(), g.o)
	if err != nil {
		return nil, err
	}
	return g.assemble(results)
}

func columnLabels(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Label
	}
	return out
}

// deriveCells fills the row-label columns from the resolved job when the
// case declares no explicit cells. Spec.check has already rejected header
// names this cannot derive.
func deriveCells(js JobSpec, headers []string) []interface{} {
	model, ds, server := js.names()
	out := make([]interface{}, 0, len(headers))
	for _, h := range headers {
		switch h {
		case "dataset":
			out = append(out, ds)
		case "server":
			out = append(out, server)
		default: // "model" (check() rejects anything else)
			out = append(out, model)
		}
	}
	return out
}

// rawStrings builds a string-valued axis value list.
func rawStrings(vs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}

// rawInts builds an integer-valued axis value list.
func rawInts(vs ...int) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}
