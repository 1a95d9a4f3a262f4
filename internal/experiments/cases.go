// Per-case result capture: every cell of a spec's row x sweep grid is
// recorded as a CaseResult — the resolved axis values plus the full
// trainer.Result — so finished sweeps can be interrogated by internal/query
// instead of re-run. The capture also round-trips through the suite JSON
// report (opt-in "cases" arrays) so `runsuite -report saved.json -query ...`
// works offline.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"datastall/internal/trainer"
)

// CaseResult is one finished training run with enough resolved identity to
// be queried: the grid coordinates (Spec/Row/Case, empty for standalone
// jobs), the resolved job parameters, and the run's full result including
// per-epoch stats.
type CaseResult struct {
	// Spec is the spec name or experiment ID; Row and Case are the axis
	// labels ("" Case when the spec has no sweep axis).
	Spec string
	Row  string
	Case string

	// Resolved job identity (defaults filled in).
	Model   string
	Dataset string
	Server  string
	Loader  string
	Servers int
	GPUs    int
	Batch   int
	Epochs  int
	// CacheBytes is the per-server cache capacity the run used.
	CacheBytes float64
	Seed       int64

	// Result is the run's output; Result.Epochs carries per-epoch stats.
	Result *trainer.Result
}

// newCaseResult captures one grid cell. cfg is the pre-default config the
// cell ran with; the resolved form (defaults filled) supplies the numeric
// identity columns.
func newCaseResult(specName, row, caseLabel string, cfg trainer.Config, res *trainer.Result) *CaseResult {
	rc := cfg.Resolved()
	return &CaseResult{
		Spec: specName, Row: row, Case: caseLabel,
		Model:   rc.Model.Name,
		Dataset: rc.Dataset.Name,
		Server:  rc.Spec.Name,
		Loader:  rc.Loader.String(),
		Servers: rc.NumServers, GPUs: rc.GPUsPerServer,
		Batch: rc.Batch, Epochs: rc.Epochs,
		CacheBytes: rc.CacheBytes, Seed: rc.Seed,
		Result: res,
	}
}

// JobCase captures a standalone job (no grid coordinates) — the HTTP
// job service uses it so single-job submissions are queryable alongside
// sweeps. name labels the run (the job ID serves well).
func JobCase(name string, cfg trainer.Config, res *trainer.Result) *CaseResult {
	return newCaseResult(name, "", "", cfg, res)
}

// MarshalJSON renders the case in its wire form — the same shape the suite
// report's "cases" arrays carry — so embedders (the job service's persist
// snapshots) round-trip captures without reaching into this package.
func (c *CaseResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(toCaseJSON(c))
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (c *CaseResult) UnmarshalJSON(data []byte) error {
	var cj caseResultJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	*c = *fromCaseJSON(&cj)
	return nil
}

// caseResultJSON is the wire form of a CaseResult: identity, the
// steady-state aggregates, and per-epoch stats. It round-trips losslessly
// enough for querying (traces are dropped).
type caseResultJSON struct {
	Spec       string  `json:"spec,omitempty"`
	Row        string  `json:"row,omitempty"`
	Case       string  `json:"case,omitempty"`
	Model      string  `json:"model"`
	Dataset    string  `json:"dataset"`
	Server     string  `json:"server"`
	Loader     string  `json:"loader"`
	Servers    int     `json:"servers"`
	GPUs       int     `json:"gpus"`
	Batch      int     `json:"batch"`
	Epochs     int     `json:"epochs"`
	CacheBytes float64 `json:"cache_bytes"`
	Seed       int64   `json:"seed"`

	EpochTime      float64 `json:"epoch_time_s"`
	Throughput     float64 `json:"samples_per_s"`
	StallFraction  float64 `json:"stall_fraction"`
	DiskPerEpoch   float64 `json:"disk_bytes_per_epoch"`
	NetPerEpoch    float64 `json:"net_bytes_per_epoch"`
	HitRate        float64 `json:"hit_rate"`
	TotalDiskBytes float64 `json:"total_disk_bytes"`
	TotalNetBytes  float64 `json:"total_net_bytes"`
	TotalTime      float64 `json:"total_time_s"`

	EpochStats []epochStatsJSON `json:"epoch_stats"`
}

type epochStatsJSON struct {
	Duration       float64 `json:"duration_s"`
	ComputeTime    float64 `json:"compute_s"`
	StallTime      float64 `json:"stall_s"`
	DiskBytes      float64 `json:"disk_bytes"`
	NetBytes       float64 `json:"net_bytes"`
	MemBytes       float64 `json:"mem_bytes"`
	DiskReads      int     `json:"disk_reads"`
	Hits           int     `json:"hits"`
	Misses         int     `json:"misses"`
	RemoteHits     int     `json:"remote_hits"`
	Samples        int     `json:"samples"`
	CacheUsedBytes float64 `json:"cache_used_bytes"`
}

func toCaseJSON(c *CaseResult) *caseResultJSON {
	r := c.Result
	out := &caseResultJSON{
		Spec: c.Spec, Row: c.Row, Case: c.Case,
		Model: c.Model, Dataset: c.Dataset, Server: c.Server, Loader: c.Loader,
		Servers: c.Servers, GPUs: c.GPUs, Batch: c.Batch, Epochs: c.Epochs,
		CacheBytes: c.CacheBytes, Seed: c.Seed,
		EpochTime: r.EpochTime, Throughput: r.Throughput,
		StallFraction: r.StallFraction,
		DiskPerEpoch:  r.DiskPerEpoch, NetPerEpoch: r.NetPerEpoch,
		HitRate:        r.HitRate,
		TotalDiskBytes: r.TotalDiskBytes, TotalNetBytes: r.TotalNetBytes,
		TotalTime: r.TotalTime,
	}
	for _, e := range r.Epochs {
		out.EpochStats = append(out.EpochStats, epochStatsJSON{
			Duration: e.Duration, ComputeTime: e.ComputeTime, StallTime: e.StallTime,
			DiskBytes: e.DiskBytes, NetBytes: e.NetBytes, MemBytes: e.MemBytes,
			DiskReads: e.DiskReads, Hits: e.Hits, Misses: e.Misses,
			RemoteHits: e.RemoteHits, Samples: e.Samples,
			CacheUsedBytes: e.CacheUsedBytes,
		})
	}
	return out
}

func fromCaseJSON(cj *caseResultJSON) *CaseResult {
	res := &trainer.Result{
		EpochTime: cj.EpochTime, Throughput: cj.Throughput,
		StallFraction: cj.StallFraction,
		DiskPerEpoch:  cj.DiskPerEpoch, NetPerEpoch: cj.NetPerEpoch,
		HitRate: cj.HitRate, SamplesPerSec: cj.Throughput,
		TotalDiskBytes: cj.TotalDiskBytes, TotalNetBytes: cj.TotalNetBytes,
		TotalTime: cj.TotalTime,
	}
	for _, e := range cj.EpochStats {
		res.Epochs = append(res.Epochs, trainer.EpochStats{
			Duration: e.Duration, ComputeTime: e.ComputeTime, StallTime: e.StallTime,
			DiskBytes: e.DiskBytes, NetBytes: e.NetBytes, MemBytes: e.MemBytes,
			DiskReads: e.DiskReads, Hits: e.Hits, Misses: e.Misses,
			RemoteHits: e.RemoteHits, Samples: e.Samples,
			CacheUsedBytes: e.CacheUsedBytes,
		})
	}
	return &CaseResult{
		Spec: cj.Spec, Row: cj.Row, Case: cj.Case,
		Model: cj.Model, Dataset: cj.Dataset, Server: cj.Server, Loader: cj.Loader,
		Servers: cj.Servers, GPUs: cj.GPUs, Batch: cj.Batch, Epochs: cj.Epochs,
		CacheBytes: cj.CacheBytes, Seed: cj.Seed,
		Result: res,
	}
}

// SuiteCases flattens every successful experiment's captured cases, in
// experiment order — the in-memory feed for the query store after a suite
// run. Experiments without a Spec (see SpecFor) contribute nothing.
func (r *SuiteResult) SuiteCases() []*CaseResult {
	var out []*CaseResult
	for _, er := range r.Results {
		if er.Report != nil {
			out = append(out, er.Report.Cases...)
		}
	}
	return out
}

// LoadSuiteCases extracts the captured cases from a saved suite JSON report
// (one written with cases included, `runsuite -json out.json -cases`). It
// errors when the report carries no cases — the caller forgot -cases, or
// none of the selected experiments capture per-case results (only runs that
// go through RunSpec do) — so empty query results aren't silently conflated
// with empty reports.
func LoadSuiteCases(data []byte) ([]*CaseResult, error) {
	var rep struct {
		Experiments []struct {
			ID    string            `json:"id"`
			Cases []*caseResultJSON `json:"cases"`
		} `json:"experiments"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("cases: not a suite report: %w", err)
	}
	var out []*CaseResult
	for _, e := range rep.Experiments {
		for _, cj := range e.Cases {
			out = append(out, fromCaseJSON(cj))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cases: the report contains no per-case results; write it with `runsuite -json -cases`, and note only spec-backed experiments (GET /v1/specs lists the built-in ones) and -spec files capture cases")
	}
	return out, nil
}
