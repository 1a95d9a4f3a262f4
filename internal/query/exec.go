package query

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sort"
)

// Engine executes queries against one store.
type Engine struct {
	st *Store
}

// New returns an engine over st. The engine is stateless; one engine may
// serve concurrent Run calls as long as the store is no longer ingesting.
func New(st *Store) *Engine { return &Engine{st: st} }

// iterator is the Volcano-model pull interface: next returns the next row,
// or (nil, nil) when exhausted. A returned row is valid until the next call
// to next: scans and projection refill one buffer per pipeline, so an
// operator that keeps a row past that (order-by, a new group's key,
// Rows.All) copies it.
type iterator interface {
	next() ([]Value, error)
}

// Rows streams a query's result. Iterate with Next/Row, then check Err:
//
//	for rows.Next() {
//		use(rows.Row())
//	}
//	if err := rows.Err(); err != nil { ... }
type Rows struct {
	cols []Col
	it   iterator
	row  []Value
	err  error
	done bool
}

// Columns describes the result schema, in row order.
func (r *Rows) Columns() []Col { return r.cols }

// Next advances to the next row, returning false at the end of the result
// or on error (including context cancellation mid-stream).
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	row, err := r.it.next()
	if err != nil || row == nil {
		r.err = err
		r.done = true
		r.row = nil
		return false
	}
	r.row = row
	return true
}

// Row returns the current row; valid until the next call to Next.
func (r *Rows) Row() []Value { return r.row }

// Err reports the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// All drains the iterator and returns a copy of every remaining row.
func (r *Rows) All() ([][]Value, error) {
	var out [][]Value
	for r.Next() {
		out = append(out, slices.Clone(r.Row()))
	}
	return out, r.Err()
}

// Run validates q, plans the operator pipeline and returns a lazy row
// stream. ctx is checked on every row pulled from the base scan, so a
// cancelled context terminates the stream promptly (Rows.Err returns
// ctx.Err()) even inside pipeline-blocking operators.
func (e *Engine) Run(ctx context.Context, q *Query) (*Rows, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	from := q.From
	if from == "" {
		from = "cases"
	}
	cols := tableCols(from, q.Join)
	idx := colIndex(cols)

	row := make([]Value, 0, len(cols)) // the scan's one row buffer
	var it iterator = &epochScan{ctx: ctx, st: e.st, join: q.Join, row: row}
	if from == "cases" {
		it = &caseScan{ctx: ctx, st: e.st, row: row}
	}

	if len(q.Where) > 0 {
		conds := make([]cond, len(q.Where))
		for i, c := range q.Where {
			conds[i] = compileCond(c, cols, idx)
		}
		it = &filterIter{in: it, conds: conds}
	}

	switch {
	case len(q.Aggs) > 0:
		keyIdx := make([]int, len(q.GroupBy))
		for i, g := range q.GroupBy {
			keyIdx[i] = idx[g]
		}
		aggs := make([]plannedAgg, len(q.Aggs))
		for i, a := range q.Aggs {
			pa := plannedAgg{op: a.Op, rowCount: a.Op == "count" && a.Col == ""}
			if !pa.rowCount {
				pa.idx = idx[a.Col]
				pa.typ = cols[pa.idx].Type
			}
			aggs[i] = pa
		}
		it = &aggIter{in: it, keyIdx: keyIdx, aggs: aggs}
	case len(q.Select) > 0:
		sel := make([]int, len(q.Select))
		for i, s := range q.Select {
			sel[i] = idx[s]
		}
		it = &projectIter{in: it, sel: sel, out: make([]Value, len(sel))}
	}

	out := q.outputCols(cols, idx)
	if len(q.OrderBy) > 0 {
		outIdx := colIndex(out)
		keys := make([]orderKey, len(q.OrderBy))
		for i, o := range q.OrderBy {
			keys[i] = orderKey{idx: outIdx[o.Col], desc: o.Desc}
		}
		it = &orderIter{in: it, keys: keys}
	}
	if q.Limit > 0 {
		it = &limitIter{in: it, n: q.Limit}
	}
	return &Rows{cols: out, it: it}, nil
}

// --- scans ---

// caseScan streams the cases in ingestion order through one reused row.
type caseScan struct {
	ctx context.Context
	st  *Store
	i   int
	row []Value
}

func (s *caseScan) next() ([]Value, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= len(s.st.cases) {
		return nil, nil
	}
	s.row = s.st.appendCaseRow(s.row[:0], s.i)
	s.i++
	return s.row, nil
}

// epochScan walks each case's Result.Epochs in place, case by case, through
// one reused row. With join set it extends each epoch row with its case's
// identity columns; the join key (case_id) is the cases slice index by
// construction, so the "hash side" is the case the scan is already on.
type epochScan struct {
	ctx      context.Context
	st       *Store
	join     bool
	i, epoch int
	row      []Value
}

func (s *epochScan) next() ([]Value, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	for s.i < len(s.st.cases) && s.epoch >= len(s.st.cases[s.i].Result.Epochs) {
		s.i, s.epoch = s.i+1, 0
	}
	if s.i >= len(s.st.cases) {
		return nil, nil
	}
	s.row = s.st.appendEpochRow(s.row[:0], s.i, s.epoch)
	if s.join {
		s.row = s.st.appendIdentity(s.row, s.i)
	}
	s.epoch++
	return s.row, nil
}

// --- filter ---

// cond is a compiled where condition.
type cond struct {
	idx int
	op  string
	// str / num hold the literal in the column's domain.
	isStr bool
	str   string
	num   float64
}

func compileCond(c Cond, cols []Col, idx map[string]int) cond {
	out := cond{idx: idx[c.Col], op: c.Op}
	if cols[out.idx].Type == TypeString {
		out.isStr = true
		out.str, _ = c.Value.(string)
	} else {
		out.num, _ = c.Value.(float64)
	}
	return out
}

func (c cond) match(row []Value) bool {
	if c.isStr {
		eq := row[c.idx].S == c.str
		if c.op == "ne" {
			return !eq
		}
		return eq
	}
	v := row[c.idx].num()
	switch c.op {
	case "eq":
		return v == c.num
	case "ne":
		return v != c.num
	case "lt":
		return v < c.num
	case "le":
		return v <= c.num
	case "gt":
		return v > c.num
	}
	return v >= c.num // ge
}

type filterIter struct {
	in    iterator
	conds []cond
}

func (f *filterIter) next() ([]Value, error) {
	for {
		row, err := f.in.next()
		if err != nil || row == nil {
			return nil, err
		}
		ok := true
		for _, c := range f.conds {
			if !c.match(row) {
				ok = false
				break
			}
		}
		if ok {
			return row, nil
		}
	}
}

// --- project ---

// projectIter refills its own output row on every next.
type projectIter struct {
	in  iterator
	sel []int
	out []Value
}

func (p *projectIter) next() ([]Value, error) {
	row, err := p.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	for i, idx := range p.sel {
		p.out[i] = row[idx]
	}
	return p.out, nil
}

// --- aggregate ---

// plannedAgg is one aggregate with its input column resolved.
type plannedAgg struct {
	op string
	// rowCount marks a bare count (no column).
	rowCount bool
	idx      int
	typ      ColType
}

// aggIter is pipeline-blocking: it drains its input on the first next,
// groups rows by the key columns, then emits one row per group in sorted
// key order (deterministic output regardless of input order).
type aggIter struct {
	in     iterator
	keyIdx []int
	aggs   []plannedAgg

	out  [][]Value
	pos  int
	done bool
}

// groupState holds a group's key and one accumulator per aggregate.
type groupState struct {
	key  []Value
	accs []aggAcc
}

// aggAcc accumulates one aggregate.
type aggAcc struct {
	n      int64
	sumF   float64
	sumI   int64
	lo, hi Value
	seen   bool
}

func (a *aggAcc) add(v Value) {
	a.n++
	a.sumF += v.num()
	if v.Type == TypeInt {
		a.sumI += v.I
	}
	if !a.seen {
		a.lo, a.hi = v, v
		a.seen = true
		return
	}
	if compare(v, a.lo) < 0 {
		a.lo = v
	}
	if compare(v, a.hi) > 0 {
		a.hi = v
	}
}

// final renders the accumulator for agg a over an input column of type t.
func (a *aggAcc) final(op string, t ColType) Value {
	switch op {
	case "count":
		return intVal(a.n)
	case "avg":
		if a.n == 0 {
			return floatVal(0)
		}
		return floatVal(a.sumF / float64(a.n))
	case "sum":
		if t == TypeInt {
			return intVal(a.sumI)
		}
		return floatVal(a.sumF)
	case "min":
		if !a.seen {
			return zeroOf(t)
		}
		return a.lo
	}
	if !a.seen {
		return zeroOf(t)
	}
	return a.hi // max
}

func zeroOf(t ColType) Value {
	switch t {
	case TypeInt:
		return intVal(0)
	case TypeFloat:
		return floatVal(0)
	}
	return strVal("")
}

func (g *aggIter) next() ([]Value, error) {
	if !g.done {
		if err := g.build(); err != nil {
			return nil, err
		}
		g.done = true
	}
	if g.pos >= len(g.out) {
		return nil, nil
	}
	row := g.out[g.pos]
	g.pos++
	return row, nil
}

func (g *aggIter) build() error {
	groups := map[string]*groupState{}
	var order []*groupState // insertion order; re-sorted below
	var kb []byte           // the current row's encoded key, reused
	for {
		row, err := g.in.next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		kb = kb[:0]
		for _, idx := range g.keyIdx {
			kb = appendKey(kb, row[idx])
		}
		gs := groups[string(kb)] // no allocation: the conversion is lookup-only
		if gs == nil {
			key := make([]Value, len(g.keyIdx))
			for i, idx := range g.keyIdx {
				key[i] = row[idx]
			}
			gs = &groupState{key: key, accs: make([]aggAcc, len(g.aggs))}
			groups[string(kb)] = gs
			order = append(order, gs)
		}
		for i, a := range g.aggs {
			if a.rowCount {
				gs.accs[i].n++
				continue
			}
			gs.accs[i].add(row[a.idx])
		}
	}
	// Aggs with no group_by always emit exactly one row, even over empty
	// input (count 0), matching SQL's scalar-aggregate shape.
	if len(g.keyIdx) == 0 && len(groups) == 0 {
		order = append(order, &groupState{key: []Value{}, accs: make([]aggAcc, len(g.aggs))})
	}
	sort.Slice(order, func(i, j int) bool {
		return compareKeys(order[i].key, order[j].key) < 0
	})
	for _, gs := range order {
		row := append(make([]Value, 0, len(gs.key)+len(g.aggs)), gs.key...)
		for i, a := range g.aggs {
			row = append(row, gs.accs[i].final(a.op, a.typ))
		}
		g.out = append(g.out, row)
	}
	return nil
}

// appendKey encodes one group-key cell for map lookup: a type tag (so 1
// and "1" differ), then the int or the float's bits in 8 bytes, or a
// length-prefixed string. The length prefix keeps the encoding injective
// whatever bytes a string holds, so no two distinct keys share one.
func appendKey(b []byte, v Value) []byte {
	b = append(b, byte(v.Type))
	switch v.Type {
	case TypeInt:
		return binary.LittleEndian.AppendUint64(b, uint64(v.I))
	case TypeFloat:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	}
	b = binary.AppendUvarint(b, uint64(len(v.S)))
	return append(b, v.S...)
}

// compareKeys orders two group keys cell-wise.
func compareKeys(a, b []Value) int {
	for i := range a {
		if c := compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// --- order by ---

type orderKey struct {
	idx  int
	desc bool
}

// orderIter is pipeline-blocking: it drains its input, sorts stably (ties
// keep pipeline order) and replays.
type orderIter struct {
	in   iterator
	keys []orderKey

	rows [][]Value
	pos  int
	done bool
}

func (o *orderIter) next() ([]Value, error) {
	if !o.done {
		for {
			row, err := o.in.next()
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			o.rows = append(o.rows, slices.Clone(row))
		}
		sort.SliceStable(o.rows, func(i, j int) bool {
			for _, k := range o.keys {
				c := compare(o.rows[i][k.idx], o.rows[j][k.idx])
				if k.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		o.done = true
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	row := o.rows[o.pos]
	o.pos++
	return row, nil
}

// --- limit ---

type limitIter struct {
	in iterator
	n  int
}

func (l *limitIter) next() ([]Value, error) {
	if l.n <= 0 {
		return nil, nil
	}
	row, err := l.in.next()
	if err != nil || row == nil {
		return nil, err
	}
	l.n--
	return row, nil
}
