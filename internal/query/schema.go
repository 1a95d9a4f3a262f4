// Package query is a read-only analytical surface over finished simulation
// results: a by-reference store of training cases, plus streaming
// Volcano-style relational operators (scan, filter, project, aggregate,
// order-by, limit, and a case-epoch join) composed from a small JSON query
// AST.
//
// The store holds pointers to experiments.CaseResult values — captured by
// spec sweeps, suite runs, the HTTP job service, or rehydrated from a saved
// suite report — and copies nothing from them: it is not a columnar copy.
// Two tables are views over those cases, each column a getter that reads
// the case, its trainer.Result or one of its trainer.EpochStats in place:
//
//   - "cases": one row per training run, with the resolved axis values
//     (model, loader, servers, cache size, ...) and steady-state metrics
//     (epoch_s, stall_pct, ...), exactly the metric names spec columns use;
//   - "epochs": one row per epoch per run, keyed back to its case by
//     case_id, including cache occupancy at epoch end.
//
// Queries are JSON (see ParseQuery) and execute lazily: Run returns a Rows
// iterator that pulls one row at a time through the operator pipeline,
// honoring ctx cancellation mid-stream. A scan fills one reused row and
// allocates nothing per case, so a row is valid only until the next call to
// Next; arbitrarily large results stream in constant memory
// (pipeline-blocking operators — aggregate and order-by — buffer only their
// own state). Example, the paper's fig18 question
// "best (smallest sufficient) cache per cluster size where stalls are
// under 5%":
//
//	{
//	  "where":    [{"col": "stall_pct", "op": "lt", "value": 5}],
//	  "group_by": ["servers", "gpus"],
//	  "aggs":     [{"op": "min", "col": "cache_gib", "as": "best_cache_gib"}],
//	  "order_by": [{"col": "servers"}, {"col": "gpus"}]
//	}
//
//	st := query.NewStore()
//	st.AddCases(report.Cases)
//	rows, err := query.New(st).Run(ctx, q)
//
// Output is deterministic for a given store: scans stream in insertion
// order, grouped output is sorted by group key, and order-by sorts stably.
package query

import (
	"datastall/internal/experiments"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// ColType is a column's value type.
type ColType int

// Column types.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeString
)

// String names the type as the schema docs spell it.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	}
	return "string"
}

// Col describes one column: its name as queries reference it, and its type.
type Col struct {
	Name string
	Type ColType
}

// Table describes one queryable table.
type Table struct {
	Name string
	Cols []Col
}

// Schema returns the store's row schema — the single source of truth shared
// by the column getters, the AST validator, and the docs. Joined queries
// ("join": true on "epochs") see the epoch columns followed by the case
// identity columns (everything in "cases" up to and including "seed",
// case_id deduplicated).
func Schema() []Table {
	return []Table{
		{Name: "cases", Cols: caseCols()},
		{Name: "epochs", Cols: epochCols()},
	}
}

// caseIdentityEnd is the number of leading "cases" columns that form the
// run's identity (case_id .. seed); the rest are steady-state metrics. The
// join appends the identity columns (minus case_id) to each epoch row.
const caseIdentityEnd = 15

// caseDef couples one "cases" column with its getter; the slice below is
// the one place the cases schema is defined.
type caseDef struct {
	col Col
	// get reads the column straight from the case; id is its case_id.
	get func(id int64, c *experiments.CaseResult) Value
}

func caseDefs() []caseDef {
	type cr = experiments.CaseResult
	return []caseDef{
		{Col{"case_id", TypeInt}, func(id int64, _ *cr) Value { return intVal(id) }},
		{Col{"spec", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Spec) }},
		{Col{"row", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Row) }},
		{Col{"case", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Case) }},
		{Col{"model", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Model) }},
		{Col{"dataset", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Dataset) }},
		{Col{"server", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Server) }},
		{Col{"loader", TypeString}, func(_ int64, c *cr) Value { return strVal(c.Loader) }},
		{Col{"servers", TypeInt}, func(_ int64, c *cr) Value { return intVal(int64(c.Servers)) }},
		{Col{"gpus", TypeInt}, func(_ int64, c *cr) Value { return intVal(int64(c.GPUs)) }},
		{Col{"batch", TypeInt}, func(_ int64, c *cr) Value { return intVal(int64(c.Batch)) }},
		{Col{"epochs", TypeInt}, func(_ int64, c *cr) Value { return intVal(int64(c.Epochs)) }},
		{Col{"cache_bytes", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.CacheBytes) }},
		{Col{"cache_gib", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.CacheBytes / stats.GiB) }},
		{Col{"seed", TypeInt}, func(_ int64, c *cr) Value { return intVal(c.Seed) }},
		// Steady-state metrics, named exactly like spec column metrics.
		{Col{"epoch_s", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.Result.EpochTime) }},
		{Col{"samples_per_s", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.Result.Throughput) }},
		{Col{"stall_pct", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(100 * c.Result.StallFraction) }},
		{Col{"hit_pct", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(100 * c.Result.HitRate) }},
		{Col{"miss_pct", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(100 * (1 - c.Result.HitRate)) }},
		{Col{"disk_gib_per_epoch", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.Result.DiskPerEpoch / stats.GiB) }},
		{Col{"disk_gib_per_node", TypeFloat}, func(_ int64, c *cr) Value {
			return floatVal(c.Result.DiskPerEpoch / float64(max(c.Servers, 1)) / stats.GiB)
		}},
		{Col{"net_gib_per_epoch", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.Result.NetPerEpoch / stats.GiB) }},
		{Col{"total_disk_gib", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.Result.TotalDiskBytes / stats.GiB) }},
		{Col{"total_time_s", TypeFloat}, func(_ int64, c *cr) Value { return floatVal(c.Result.TotalTime) }},
	}
}

func caseCols() []Col {
	out := make([]Col, len(allCaseDefs))
	for i, d := range allCaseDefs {
		out[i] = d.col
	}
	return out
}

// epochDef couples one "epochs" column with its getter, which reads epoch
// number epoch of case id straight from its stats.
type epochDef struct {
	col Col
	get func(id, epoch int64, e *trainer.EpochStats) Value
}

func epochDefs() []epochDef {
	type es = trainer.EpochStats
	return []epochDef{
		{Col{"case_id", TypeInt}, func(id, _ int64, _ *es) Value { return intVal(id) }},
		{Col{"epoch", TypeInt}, func(_, epoch int64, _ *es) Value { return intVal(epoch) }},
		{Col{"duration_s", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.Duration) }},
		{Col{"compute_s", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.ComputeTime) }},
		{Col{"stall_s", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.StallTime) }},
		{Col{"epoch_stall_pct", TypeFloat}, func(_, _ int64, e *es) Value {
			if e.Duration > 0 {
				return floatVal(100 * e.StallTime / e.Duration)
			}
			return floatVal(0)
		}},
		{Col{"disk_gib", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.DiskBytes / stats.GiB) }},
		{Col{"net_gib", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.NetBytes / stats.GiB) }},
		{Col{"mem_gib", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.MemBytes / stats.GiB) }},
		{Col{"disk_reads", TypeInt}, func(_, _ int64, e *es) Value { return intVal(int64(e.DiskReads)) }},
		{Col{"hits", TypeInt}, func(_, _ int64, e *es) Value { return intVal(int64(e.Hits)) }},
		{Col{"misses", TypeInt}, func(_, _ int64, e *es) Value { return intVal(int64(e.Misses)) }},
		{Col{"remote_hits", TypeInt}, func(_, _ int64, e *es) Value { return intVal(int64(e.RemoteHits)) }},
		{Col{"samples", TypeInt}, func(_, _ int64, e *es) Value { return intVal(int64(e.Samples)) }},
		{Col{"cache_used_gib", TypeFloat}, func(_, _ int64, e *es) Value { return floatVal(e.CacheUsedBytes / stats.GiB) }},
	}
}

func epochCols() []Col {
	out := make([]Col, len(allEpochDefs))
	for i, d := range allEpochDefs {
		out[i] = d.col
	}
	return out
}

// joinCols is the output schema of "epochs" with "join": true — the epoch
// columns followed by the case identity columns (case_id deduplicated).
func joinCols() []Col {
	out := append([]Col{}, epochCols()...)
	for _, c := range caseCols()[1:caseIdentityEnd] {
		out = append(out, c)
	}
	return out
}

// tableCols resolves the output schema a query's scan produces, or nil for
// an unknown combination.
func tableCols(from string, join bool) []Col {
	switch {
	case from == "cases" && !join:
		return caseCols()
	case from == "epochs" && join:
		return joinCols()
	case from == "epochs":
		return epochCols()
	}
	return nil
}
