// The case grid behind a declarative Spec, split into its two halves:
// enumeration (which cells exist, in which order, resolving to which job)
// and assembly (turning one result per cell back into the Report). RunSpec
// is exactly enumerate -> Executor -> assemble, and the job service runs
// the same three steps with the same Executor, configured with its WAL
// hooks and, in coordinator mode, a runner that scatters cells across a
// worker fleet. Any producer of the same per-cell trainer.Results in cell
// order gathers a Report byte-identical to a single-node run by
// construction.
package experiments

import (
	"fmt"
	"strings"

	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// SpecCase is one resolved cell of a spec's row x sweep grid: its position
// in execution (row-major) order, the axis labels RunSpec would report for
// it, and the fully overlaid JobSpec (base + row overlay + sweep overlay).
// Job.Build with the same Options RunSpec received resolves it into the
// exact trainer.Config the cell runs with, so a remote worker given (Job,
// Options) reproduces the cell bit for bit.
type SpecCase struct {
	// Index is the cell's position in execution order, 0-based; Total is
	// the grid size.
	Index int
	Total int
	// Row and Case are the axis labels ("" Case when the spec has no sweep
	// axis).
	Row  string
	Case string
	// Job is the fully overlaid job description for this cell.
	Job JobSpec
}

// EnumerateCases expands a spec into its case grid in execution order —
// the scatter half of RunSpec. The cells are independent by construction
// (each resolves to its own trainer.Config), so they may run anywhere in
// any order; AssembleReport puts the results back together.
func EnumerateCases(sp *Spec, o Options) ([]SpecCase, error) {
	g, err := newSpecGrid(sp, o)
	if err != nil {
		return nil, err
	}
	return g.cases(), nil
}

// AssembleReport builds the spec's Report from one trainer.Result per grid
// cell, results[i] belonging to the cell EnumerateCases returns at Index i —
// the gather half of RunSpec. Given results produced by the same
// deterministic simulations RunSpec would run, the returned Report is
// byte-identical to a single-node RunSpec, regardless of where or in what
// order the cells actually executed.
func AssembleReport(sp *Spec, o Options, results []*trainer.Result) (*Report, error) {
	g, err := newSpecGrid(sp, o)
	if err != nil {
		return nil, err
	}
	if len(results) != g.total() {
		return nil, fmt.Errorf("spec %s: %d results for %d grid cells", sp.Name, len(results), g.total())
	}
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("spec %s: missing result for grid cell %d", sp.Name, i)
		}
	}
	return g.assemble(results)
}

// gridRow is one resolved point of the row axis: its label, its row-header
// cells, and the base job with the row overlay applied.
type gridRow struct {
	label string
	cells []interface{}
	job   JobSpec
}

// specGrid is a spec with both axes resolved and row labels settled — the
// shared state of enumeration and assembly.
type specGrid struct {
	sp    *Spec
	o     Options
	rows  []gridRow
	sweep []axisCase
}

// newSpecGrid validates the spec and resolves its axes. Row labels that
// derive from the resolved job (cells-less cases) are settled here, with
// the same uniqueness check RunSpec applied mid-run.
func newSpecGrid(sp *Spec, o Options) (*specGrid, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	o = o.withDefaults(o.Scale)
	rows, err := sp.Rows.resolve()
	if err != nil {
		return nil, err
	}
	sweep := []axisCase{{}}
	if sp.Sweep != nil {
		if sweep, err = sp.Sweep.resolve(); err != nil {
			return nil, err
		}
	}
	g := &specGrid{sp: sp, o: o, sweep: sweep}
	seenRows := map[string]bool{}
	for _, row := range rows {
		js := sp.Base.overlay(row.set)
		cells := row.cells
		if cells == nil {
			cells = deriveCells(js, sp.RowHeader)
		}
		label := row.label
		if label == "" && len(cells) > 0 {
			label = cellString(cells[0])
		}
		if seenRows[label] {
			return nil, fmt.Errorf("spec %s: duplicate row label %q (labels key the {row} substitution and must be unique)",
				sp.Name, label)
		}
		seenRows[label] = true
		g.rows = append(g.rows, gridRow{label: label, cells: cells, job: js})
	}
	return g, nil
}

func (g *specGrid) total() int { return len(g.rows) * len(g.sweep) }

// cases flattens the grid in execution (row-major) order.
func (g *specGrid) cases() []SpecCase {
	total := g.total()
	out := make([]SpecCase, 0, total)
	for _, row := range g.rows {
		for _, sc := range g.sweep {
			out = append(out, SpecCase{
				Index: len(out), Total: total,
				Row: row.label, Case: sc.label,
				Job: row.job.overlay(sc.set),
			})
		}
	}
	return out
}

// assemble turns one result per cell (in execution order) into the Report.
// Each cell's config is rebuilt locally — resolution is deterministic and
// costs nothing next to a simulation — so the table's derived columns and
// the per-case capture see exactly what the cell ran with.
func (g *specGrid) assemble(results []*trainer.Result) (*Report, error) {
	sp := g.sp
	r := &Report{
		ID: sp.Name,
		Table: &stats.Table{
			Title:   sp.Title,
			Columns: append(append([]string{}, sp.RowHeader...), columnLabels(sp.Columns)...),
		},
		Notes: sp.Notes,
	}
	i := 0
	for _, row := range g.rows {
		rowResults := make(map[string]*trainer.Result, len(g.sweep))
		servers := make(map[string]int, len(g.sweep))
		cells := append(make([]interface{}, 0, len(row.cells)+len(sp.Columns)), row.cells...)
		for _, sc := range g.sweep {
			cfg, err := row.job.overlay(sc.set).build(g.o)
			if err != nil {
				return nil, err
			}
			res := results[i]
			i++
			rowResults[sc.label] = res
			servers[sc.label] = cfg.NumServers
			r.Cases = append(r.Cases, newCaseResult(sp.Name, row.label, sc.label, cfg, res))
		}
		for _, col := range sp.Columns {
			v := metricValue(col.Metric, rowResults[col.Of], servers[col.Of])
			if col.Over != "" {
				v /= metricValue(col.Metric, rowResults[col.Over], servers[col.Over])
			}
			cells = append(cells, v)
			if col.Key != "" {
				r.set(strings.ReplaceAll(col.Key, "{row}", row.label), v)
			}
		}
		r.Table.AddRow(cells...)
	}
	return r, nil
}
