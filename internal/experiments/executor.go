// The one cell executor. Every path that turns grid cells into results —
// RunSpec, and the job service's local and coordinator executors for both
// spec and single-job submissions — runs the same per-cell pipeline:
//
//	resume -> dedupe -> memo -> run -> done hook, inside one case span.
//
// Callers differ only in configuration: where unique cells run (a RunCell
// such as LocalRunner, serially in index order, or a RunBatch that takes
// every cell left after resume, dedupe and the memo at once — the
// coordinator's dispatcher), and the hooks a service supplies to resume
// from and log to its write-ahead log.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"datastall/internal/memo"
	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// RunCell produces one cell's result. sp is the cell's case span: a local
// runner hangs its simulate span under it.
type RunCell func(ctx context.Context, c SpecCase, sp obs.Span) (*trainer.Result, error)

// RunBatch produces the results of several unique cells together; spans[k]
// is cells[k]'s case span, under which a remote runner hangs its dispatch
// attempts. It calls deliver(k, res) once for each cell as its result
// arrives, from any goroutine and in any order, and returns only once no
// further call can happen. An error fails the grid.
type RunBatch func(ctx context.Context, cells []SpecCase, spans []obs.Span, deliver func(k int, res *trainer.Result)) error

// Executor runs grid cells through the per-cell pipeline. One of Run and
// Batch is required; the other fields are for callers that persist
// progress.
type Executor struct {
	// Run produces a unique cell's result on a memo miss (or without a
	// memo). Cells run serially in index order, so Done fires in index
	// order too.
	Run RunCell
	// Batch, when set, replaces Run: it is called once, with every unique
	// cell that resume and the memo did not serve, and Done fires as each
	// result is delivered.
	Batch RunBatch
	// Resume holds results an earlier, interrupted run already captured, by
	// cell index. Those cells are served as-is: never run, never Done.
	Resume map[int]*trainer.Result
	// Start, when set, is called as each cell begins; resumed reports that
	// the cell is served from Resume.
	Start func(c SpecCase, resumed bool)
	// Done, when set, is called with each newly captured result and the time
	// the cell took. A duplicate cell reports its copy of the leader's
	// result with took == 0: it did no work.
	Done func(c SpecCase, res *trainer.Result, took time.Duration)
}

// LocalRunner simulates cells in-process: each cell's JobSpec resolved
// under o and run with observers attached, under a simulate span carrying
// the per-epoch stall attribution.
func LocalRunner(o Options, observers ...trainer.Observer) RunCell {
	return func(ctx context.Context, c SpecCase, sp obs.Span) (*trainer.Result, error) {
		cfg, err := c.Job.Build(o)
		if err != nil {
			return nil, err
		}
		sim := sp.Start("simulate")
		res, err := trainer.RunContext(ctx, cfg, observers...)
		if err == nil {
			traceEpochs(sim, cfg, res)
		}
		sim.End()
		return res, err
	}
}

// Execute runs cells — in index order, cells[i].Index == i, as
// EnumerateCases returns them — and returns one result per cell. o
// resolves each cell's key and supplies the memo cache and the span the
// case spans hang under.
//
// Dedupe is decided here, once, before anything runs: each cell's CaseKey
// is hashed exactly once, and a cell whose hash matches an earlier cell's
// copies that leader's result — even a resumed one — without reaching the
// memo or the runner. Keys are of the fully resolved config, so identical
// means "runs the same simulation", not "spelled the same".
//
// With o.Memo set, a miss's entry is written behind its cell, overlapping
// the cells after it. Execute returns — on success, error or cancellation —
// only once every entry write its cells started has ended, so no write
// outlives the grid. A write that failed left its entry out: that costs a
// future hit, never a wrong result.
func (e Executor) Execute(ctx context.Context, cells []SpecCase, o Options) ([]*trainer.Result, error) {
	salt := ""
	if o.Memo != nil {
		salt = o.Memo.Salt()
	}
	keys := make([]memo.Key, len(cells))
	leader := make([]int, len(cells))
	first := make(map[string]int, len(cells))
	for i, c := range cells {
		leader[i] = i
		// A cell whose config does not resolve keeps a zero key: it is
		// never a duplicate, and the runner reports the resolution error
		// with the cell's own context.
		if k, err := CaseKey(c.Job, o, salt); err == nil {
			keys[i] = k
			if l, ok := first[k.Hash]; ok {
				leader[i] = l
			} else {
				first[k.Hash] = i
			}
		}
	}

	// Misses write their memo entries behind the grid; on every return
	// path, error and cancellation too, those writes finish first.
	var writes *memo.Writes
	if o.Memo != nil {
		writes = new(memo.Writes)
		defer flush(writes, o.Trace)
	}
	results := make([]*trainer.Result, len(cells))
	// In batch mode, missed collects the unique cells the memo did not
	// serve, with their open case spans, and dups the duplicates, copied
	// once the batch has delivered their leaders.
	var (
		missed, dups []int
		spans        []obs.Span
	)
	for i, c := range cells {
		switch {
		case e.Resume[i] != nil:
			results[i] = e.Resume[i]
			e.start(c, true)
			sp := openCase(o.Trace, c)
			sp.Event("case_resumed")
			sp.End()
		case leader[i] != i && e.Batch != nil:
			dups = append(dups, i)
		case leader[i] != i:
			results[i] = results[leader[i]]
			e.copied(c, results[i], o.Trace)
		case e.Batch == nil:
			res, err := e.runCell(ctx, c, keys[i], o, writes)
			if err != nil {
				return nil, err
			}
			results[i] = res
		default:
			e.start(c, false)
			sp := openCase(o.Trace, c)
			if o.Memo != nil && keys[i].Hash != "" {
				began := time.Now()
				if res, ok := o.Memo.Peek(keys[i], writes); ok {
					sp.Event("memo_lookup").SetAttr("hit", "true")
					results[i] = res
					e.done(c, res, time.Since(began), sp)
					continue
				}
			}
			missed = append(missed, i)
			spans = append(spans, sp)
		}
	}
	if e.Batch == nil {
		return results, nil
	}
	if err := e.runBatch(ctx, cells, missed, spans, keys, o, writes, results); err != nil {
		return nil, err
	}
	for _, i := range dups {
		results[i] = results[leader[i]]
		e.copied(cells[i], results[i], o.Trace)
	}
	return results, nil
}

// runBatch hands the missed cells to the batch runner. A delivered result
// goes through the memo's Do, which counts the miss, publishes the entry
// and writes it behind; the result is already in hand, so Do's flight never
// waits on a dispatch, and two grids sharing a cell cannot deadlock.
func (e Executor) runBatch(ctx context.Context, cells []SpecCase, missed []int, spans []obs.Span, keys []memo.Key, o Options, writes *memo.Writes, results []*trainer.Result) error {
	if len(missed) == 0 {
		return nil
	}
	batch := make([]SpecCase, len(missed))
	for k, i := range missed {
		batch[k] = cells[i]
	}
	began := time.Now()
	delivered := make([]bool, len(missed))
	err := e.Batch(ctx, batch, spans, func(k int, res *trainer.Result) {
		i := missed[k]
		if key := keys[i]; o.Memo != nil && key.Hash != "" {
			got, hit, err := o.Memo.Do(ctx, key, writes, func() (*trainer.Result, error) { return res, nil })
			if err == nil {
				res = got
			}
			spans[k].Event("memo_lookup").SetAttr("hit", strconv.FormatBool(hit))
		}
		results[i] = res
		delivered[k] = true
		e.done(cells[i], res, time.Since(began), spans[k])
	})
	for k, sp := range spans {
		if delivered[k] {
			continue
		}
		if err == nil {
			err = fmt.Errorf("case %d: the batch runner returned without its result", cells[missed[k]].Index)
		}
		sp.SetAttr("error", err.Error())
		sp.End()
	}
	return err
}

// runCell takes one unique cell through the memo (when o has one and the
// cell has a key) and the runner; a miss's entry write joins writes.
func (e Executor) runCell(ctx context.Context, c SpecCase, key memo.Key, o Options, writes *memo.Writes) (*trainer.Result, error) {
	e.start(c, false)
	sp := openCase(o.Trace, c)
	began := time.Now()
	run := func() (*trainer.Result, error) { return e.Run(ctx, c, sp) }
	var res *trainer.Result
	var err error
	if o.Memo != nil && key.Hash != "" {
		var hit bool
		res, hit, err = o.Memo.Do(ctx, key, writes, run)
		sp.Event("memo_lookup").SetAttr("hit", strconv.FormatBool(hit))
	} else {
		res, err = run()
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	e.done(c, res, time.Since(began), sp)
	return res, nil
}

// done reports a captured cell to the Done hook and ends its case span.
func (e Executor) done(c SpecCase, res *trainer.Result, took time.Duration, sp obs.Span) {
	if e.Done != nil {
		e.Done(c, res, took)
	}
	sp.End()
}

// flush waits until the writes of the memo entries a grid wrote, or was
// served while still in flight, have ended, under a memo_flush span when
// there are any.
func flush(writes *memo.Writes, parent obs.Span) {
	n := writes.Len()
	if n == 0 {
		return
	}
	sp := parent.Start("memo_flush")
	sp.SetAttr("writes", strconv.Itoa(n))
	writes.Wait()
	sp.End()
}

// copied reports a duplicate cell holding its leader's result: Done like
// any other cell, under a case span marked case_dedup.
func (e Executor) copied(c SpecCase, res *trainer.Result, parent obs.Span) {
	e.start(c, false)
	sp := openCase(parent, c)
	sp.Event("case_dedup")
	e.done(c, res, 0, sp)
}

func (e Executor) start(c SpecCase, resumed bool) {
	if e.Start != nil {
		e.Start(c, resumed)
	}
}

// openCase opens a cell's case span on its own thread track (the cells of
// a batch overlap), labelled with the cell's axis coordinates; a
// single job's one cell has none.
func openCase(parent obs.Span, c SpecCase) obs.Span {
	sp := parent.StartThread("case")
	if c.Row != "" {
		sp.SetAttr("row", c.Row)
	}
	if c.Case != "" {
		sp.SetAttr("case", c.Case)
	}
	return sp
}
