package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"datastall/internal/experiments"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// --- fixtures ---

// synthCase fabricates a finished case without running a simulation; the
// metric values are arbitrary but self-consistent.
func synthCase(r *rand.Rand, spec, row, label string, servers, gpus int, cacheGiB, stallFrac float64) *experiments.CaseResult {
	nEpochs := 1 + r.Intn(3)
	res := &trainer.Result{
		EpochTime:      50 + 100*r.Float64(),
		Throughput:     1000 + 4000*r.Float64(),
		StallFraction:  stallFrac,
		DiskPerEpoch:   float64(r.Intn(64)) * stats.GiB,
		NetPerEpoch:    float64(r.Intn(16)) * stats.GiB,
		HitRate:        r.Float64(),
		TotalDiskBytes: float64(r.Intn(256)) * stats.GiB,
		TotalNetBytes:  float64(r.Intn(64)) * stats.GiB,
		TotalTime:      100 + 500*r.Float64(),
	}
	for e := 0; e < nEpochs; e++ {
		dur := 40 + 80*r.Float64()
		stall := stallFrac * dur
		res.Epochs = append(res.Epochs, trainer.EpochStats{
			Duration: dur, ComputeTime: dur - stall, StallTime: stall,
			DiskBytes: float64(r.Intn(32)) * stats.GiB,
			NetBytes:  float64(r.Intn(8)) * stats.GiB,
			MemBytes:  float64(r.Intn(8)) * stats.GiB,
			DiskReads: r.Intn(10000), Hits: r.Intn(10000),
			Misses: r.Intn(10000), RemoteHits: r.Intn(1000),
			Samples:        1281,
			CacheUsedBytes: cacheGiB * stats.GiB * r.Float64(),
		})
	}
	return &experiments.CaseResult{
		Spec: spec, Row: row, Case: label,
		Model: "resnet18", Dataset: "imagenet-1k",
		Server: "dgx2", Loader: []string{"DALI-CPU", "DALI-GPU", "CoorDL"}[r.Intn(3)],
		Servers: servers, GPUs: gpus, Batch: 128, Epochs: len(res.Epochs),
		CacheBytes: cacheGiB * stats.GiB, Seed: int64(r.Intn(5)),
		Result: res,
	}
}

// label draws a short name for a string column. Names are free JSON
// strings, so the alphabet holds a NUL and a digit — the bytes a
// separator-joined group key and its type tags are made of — and labels
// this short often make two keys whose cells, run together, spell the same
// bytes.
func label(r *rand.Rand) string {
	const alphabet = "a2\x00"
	b := make([]byte, r.Intn(4))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// testStore builds a randomized store of n cases across a small grid.
func testStore(seed int64, n int) *Store {
	r := rand.New(rand.NewSource(seed))
	st := NewStore()
	grid := [][2]int{{1, 4}, {2, 8}, {4, 8}}
	for i := 0; i < n; i++ {
		g := grid[r.Intn(len(grid))]
		c := synthCase(r, label(r), label(r), label(r),
			g[0], g[1],
			float64(16*(1+r.Intn(6))), // 16..96 GiB
			r.Float64()*0.4,
		)
		c.Model, c.Dataset, c.Server = label(r), label(r), label(r)
		st.Add(c)
	}
	return st
}

// --- naive reference evaluator ---

// refEval evaluates a validated query by brute force: materialize every
// row, then apply each clause with plain loops. It shares only the schema
// (column names/types) with the engine, not the operator implementations.
func refEval(st *Store, q *Query) [][]Value {
	from := q.From
	if from == "" {
		from = "cases"
	}
	cols := tableCols(from, q.Join)
	idx := colIndex(cols)

	var rows [][]Value
	switch {
	case from == "cases":
		for i := range st.cases {
			rows = append(rows, st.appendCaseRow(nil, i))
		}
	default:
		for i, c := range st.cases {
			for e := range c.Result.Epochs {
				r := st.appendEpochRow(nil, i, e)
				if q.Join {
					r = st.appendIdentity(r, i)
				}
				rows = append(rows, r)
			}
		}
	}

	var kept [][]Value
	for _, r := range rows {
		ok := true
		for _, c := range q.Where {
			if !refMatch(r[idx[c.Col]], c.Op, c.Value) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	rows = kept

	switch {
	case len(q.Aggs) > 0:
		rows = refAggregate(rows, q, cols, idx)
	case len(q.Select) > 0:
		var out [][]Value
		for _, r := range rows {
			nr := make([]Value, len(q.Select))
			for j, s := range q.Select {
				nr[j] = r[idx[s]]
			}
			out = append(out, nr)
		}
		rows = out
	}

	outIdx := colIndex(q.outputCols(cols, idx))
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, o := range q.OrderBy {
				c := refCmp(rows[i][outIdx[o.Col]], rows[j][outIdx[o.Col]])
				if o.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

func refMatch(v Value, op string, lit interface{}) bool {
	if s, ok := lit.(string); ok {
		if op == "ne" {
			return v.S != s
		}
		return v.S == s
	}
	f := lit.(float64)
	var n float64
	if v.Type == TypeInt {
		n = float64(v.I)
	} else {
		n = v.F
	}
	switch op {
	case "eq":
		return n == f
	case "ne":
		return n != f
	case "lt":
		return n < f
	case "le":
		return n <= f
	case "gt":
		return n > f
	}
	return n >= f
}

func refCmp(a, b Value) int {
	if a.Type == TypeString {
		return strings.Compare(a.S, b.S)
	}
	an, bn := a.num(), b.num()
	switch {
	case an < bn:
		return -1
	case an > bn:
		return 1
	}
	return 0
}

func refAggregate(rows [][]Value, q *Query, cols []Col, idx map[string]int) [][]Value {
	type group struct {
		key  []Value
		rows [][]Value
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, r := range rows {
		key := make([]Value, len(q.GroupBy))
		for j, gc := range q.GroupBy {
			key[j] = r[idx[gc]]
		}
		ks := fmt.Sprintf("%#v", key)
		g := byKey[ks]
		if g == nil {
			g = &group{key: key}
			byKey[ks] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, r)
	}
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	sort.Slice(groups, func(i, j int) bool {
		for k := range groups[i].key {
			if c := refCmp(groups[i].key[k], groups[j].key[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	var out [][]Value
	for _, g := range groups {
		row := append([]Value{}, g.key...)
		for _, a := range q.Aggs {
			row = append(row, refAgg(a, g.rows, cols, idx))
		}
		out = append(out, row)
	}
	return out
}

func refAgg(a Agg, rows [][]Value, cols []Col, idx map[string]int) Value {
	if a.Op == "count" {
		return intVal(int64(len(rows)))
	}
	ci := idx[a.Col]
	t := cols[ci].Type
	if len(rows) == 0 {
		if a.Op == "avg" {
			return floatVal(0)
		}
		return zeroOf(t)
	}
	switch a.Op {
	case "avg":
		s := 0.0
		for _, r := range rows {
			s += r[ci].num()
		}
		return floatVal(s / float64(len(rows)))
	case "sum":
		if t == TypeInt {
			var s int64
			for _, r := range rows {
				s += r[ci].I
			}
			return intVal(s)
		}
		s := 0.0
		for _, r := range rows {
			s += r[ci].F
		}
		return floatVal(s)
	case "min":
		best := rows[0][ci]
		for _, r := range rows[1:] {
			if refCmp(r[ci], best) < 0 {
				best = r[ci]
			}
		}
		return best
	}
	best := rows[0][ci]
	for _, r := range rows[1:] {
		if refCmp(r[ci], best) > 0 {
			best = r[ci]
		}
	}
	return best
}

// --- random query generator ---

func randQuery(r *rand.Rand, st *Store) *Query {
	q := &Query{}
	switch r.Intn(3) {
	case 0:
		q.From = "cases"
	case 1:
		q.From = "epochs"
	default:
		q.From = "epochs"
		q.Join = true
	}
	cols := tableCols(q.From, q.Join)

	// Sample literals from the data so filters have mixed selectivity.
	sample := func(c Col) interface{} {
		rows := refEval(st, &Query{From: q.From, Join: q.Join})
		if len(rows) == 0 {
			if c.Type == TypeString {
				return "x"
			}
			return float64(1)
		}
		v := rows[r.Intn(len(rows))][colIndex(cols)[c.Name]]
		if c.Type == TypeString {
			if r.Intn(4) == 0 {
				return "zzz-absent"
			}
			return v.S
		}
		return v.num()
	}

	for i := 0; i < r.Intn(3); i++ {
		c := cols[r.Intn(len(cols))]
		ops := []string{"eq", "ne"}
		if c.Type != TypeString {
			ops = []string{"eq", "ne", "lt", "le", "gt", "ge"}
		}
		q.Where = append(q.Where, Cond{Col: c.Name, Op: ops[r.Intn(len(ops))], Value: sample(c)})
	}

	var strs []Col
	for _, c := range cols {
		if c.Type == TypeString {
			strs = append(strs, c)
		}
	}
	numeric := func() Col {
		for {
			c := cols[r.Intn(len(cols))]
			if c.Type != TypeString {
				return c
			}
		}
	}
	switch r.Intn(3) {
	case 0: // aggregate
		for i := 0; i < r.Intn(3); i++ {
			c := cols[r.Intn(len(cols))]
			if len(strs) > 0 && r.Intn(2) == 0 {
				// String keys are where a key encoding can collide.
				c = strs[r.Intn(len(strs))]
			}
			dup := false
			for _, g := range q.GroupBy {
				if g == c.Name {
					dup = true
				}
			}
			if !dup {
				q.GroupBy = append(q.GroupBy, c.Name)
			}
		}
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			op := []string{"min", "max", "sum", "avg", "count"}[r.Intn(5)]
			a := Agg{Op: op, As: fmt.Sprintf("a%d", i)}
			if op != "count" || r.Intn(2) == 0 {
				a.Col = numeric().Name
			}
			q.Aggs = append(q.Aggs, a)
		}
	case 1: // project
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			q.Select = append(q.Select, cols[r.Intn(len(cols))].Name)
		}
	}

	out := q.outputCols(cols, colIndex(cols))
	for i := 0; i < r.Intn(3) && len(out) > 0; i++ {
		q.OrderBy = append(q.OrderBy, Order{Col: out[r.Intn(len(out))].Name, Desc: r.Intn(2) == 0})
	}
	if r.Intn(3) == 0 {
		q.Limit = 1 + r.Intn(10)
	}
	return q
}

// sameRows compares engine output to the reference. Without a total
// order_by the engine guarantees a deterministic order but the reference's
// may differ only when order_by leaves ties; compare as multisets then.
func sameRows(got, want [][]Value, total bool) bool {
	if len(got) != len(want) {
		return false
	}
	if total {
		return reflect.DeepEqual(got, want) || len(got) == 0
	}
	gk := make([]string, len(got))
	wk := make([]string, len(want))
	for i := range got {
		gk[i] = fmt.Sprintf("%#v", got[i])
		wk[i] = fmt.Sprintf("%#v", want[i])
	}
	sort.Strings(gk)
	sort.Strings(wk)
	return reflect.DeepEqual(gk, wk)
}

// --- differential tests ---

// TestDifferentialRandom cross-checks the streaming engine against the
// brute-force reference over hundreds of random queries covering every
// operator and both tables.
func TestDifferentialRandom(t *testing.T) {
	st := testStore(1, 40)
	r := rand.New(rand.NewSource(2))
	eng := New(st)
	for i := 0; i < 400; i++ {
		q := randQuery(r, st)
		if err := q.Validate(); err != nil {
			t.Fatalf("generated invalid query %+v: %v", q, err)
		}
		rows, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("Run(%+v): %v", q, err)
		}
		got, err := rows.All()
		if err != nil {
			t.Fatalf("All(%+v): %v", q, err)
		}
		want := refEval(st, q)
		// With a limit but no (or partial) order, row identity can
		// legitimately differ; compare counts only then.
		if q.Limit > 0 {
			if len(got) != len(want) {
				qj, _ := json.Marshal(q)
				t.Fatalf("query %s: got %d rows, reference %d", qj, len(got), len(want))
			}
			continue
		}
		if !sameRows(got, want, false) {
			qj, _ := json.Marshal(q)
			t.Fatalf("query %s:\n got %v\nwant %v", qj, got, want)
		}
	}
}

// TestDifferentialOrdered pins exact row order for fully-ordered queries.
func TestDifferentialOrdered(t *testing.T) {
	st := testStore(3, 30)
	eng := New(st)
	queries := []string{
		`{"select":["case","stall_pct"],"order_by":[{"col":"stall_pct","desc":true},{"col":"case"}]}`,
		`{"from":"epochs","order_by":[{"col":"case_id"},{"col":"epoch"}]}`,
		`{"from":"epochs","join":true,"where":[{"col":"epoch","op":"gt","value":0}],"order_by":[{"col":"case_id"},{"col":"epoch"}]}`,
		`{"group_by":["servers","gpus"],"aggs":[{"op":"min","col":"cache_gib"},{"op":"count"}]}`,
		`{"aggs":[{"op":"avg","col":"epoch_s"},{"op":"sum","col":"batch"},{"op":"count"}]}`,
		`{"where":[{"col":"loader","op":"eq","value":"CoorDL"}],"order_by":[{"col":"case_id"}],"limit":5}`,
	}
	for _, src := range queries {
		q, err := ParseQuery([]byte(src))
		if err != nil {
			t.Fatalf("ParseQuery(%s): %v", src, err)
		}
		rows, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("Run(%s): %v", src, err)
		}
		got, err := rows.All()
		if err != nil {
			t.Fatalf("All(%s): %v", src, err)
		}
		want := refEval(st, q)
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("query %s:\n got %v\nwant %v", src, got, want)
		}
	}
}

// TestFig18Shape checks the canonical "best cache per cluster size under a
// stall budget" query against hand-computed output.
func TestFig18Shape(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	st := NewStore()
	// (servers, gpus, cacheGiB, stallFrac)
	for _, c := range []struct {
		servers, gpus int
		cache, stall  float64
	}{
		{1, 4, 16, 0.30}, {1, 4, 32, 0.04}, {1, 4, 64, 0.01},
		{2, 8, 16, 0.40}, {2, 8, 32, 0.12}, {2, 8, 64, 0.03},
	} {
		st.Add(synthCase(r, "fig18", "r", "c", c.servers, c.gpus, c.cache, c.stall))
	}
	q, err := ParseQuery([]byte(`{
		"where":    [{"col": "stall_pct", "op": "lt", "value": 5}],
		"group_by": ["servers", "gpus"],
		"aggs":     [{"op": "min", "col": "cache_gib", "as": "best_cache_gib"}],
		"order_by": [{"col": "servers"}, {"col": "gpus"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(st).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{
		{intVal(1), intVal(4), floatVal(32)},
		{intVal(2), intVal(8), floatVal(64)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	wantCols := []string{"servers", "gpus", "best_cache_gib"}
	for i, c := range rows.Columns() {
		if c.Name != wantCols[i] {
			t.Fatalf("column %d = %q, want %q", i, c.Name, wantCols[i])
		}
	}
}

// TestScalarAggEmptyInput: aggs with no group_by emit exactly one row even
// when the filter kills every input row.
func TestScalarAggEmptyInput(t *testing.T) {
	st := testStore(5, 4)
	q, err := ParseQuery([]byte(`{"where":[{"col":"servers","op":"lt","value":0}],"aggs":[{"op":"count"},{"op":"sum","col":"batch"},{"op":"avg","col":"epoch_s"},{"op":"min","col":"cache_gib"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(st).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{{intVal(0), intVal(0), floatVal(0), floatVal(0)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// --- cancellation ---

// TestCancelMidStream: cancelling the context mid-iteration terminates the
// stream with ctx.Err, both for streaming scans and inside the blocking
// aggregate drain.
func TestCancelMidStream(t *testing.T) {
	st := testStore(9, 20)
	eng := New(st)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := eng.Run(ctx, &Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first Next = false: %v", rows.Err())
	}
	cancel()
	n := 0
	for rows.Next() {
		n++
	}
	if n != 0 {
		t.Fatalf("read %d rows after cancel", n)
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}

	// Pre-cancelled context: the blocking aggregate must surface the error
	// from its drain, not emit a result.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	rows, err = eng.Run(ctx2, &Query{Aggs: []Agg{{Op: "count"}}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next = true under cancelled ctx")
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
}

// --- validation / parse rejection ---

// TestParseQueryRejects is the garbage-AST table test: every malformed
// query is rejected with the right sentinel and field.
func TestParseQueryRejects(t *testing.T) {
	cases := []struct {
		name, src string
		sentinel  error // nil: any error (JSON-level failure)
		field     string
	}{
		{"bad json", `{`, nil, ""},
		{"unknown field", `{"frmo": "cases"}`, nil, ""},
		{"trailing data", `{} {}`, nil, ""},
		{"wrong root type", `[1, 2]`, nil, ""},
		{"unknown table", `{"from": "bogus"}`, ErrUnknownTable, "from"},
		{"join on cases", `{"join": true}`, ErrBadJoin, "join"},
		{"unknown where col", `{"where": [{"col": "nope", "op": "eq", "value": 1}]}`, ErrUnknownColumn, "where[0].col"},
		{"order op on string", `{"where": [{"col": "model", "op": "lt", "value": "a"}]}`, ErrBadOp, "where[0].op"},
		{"unknown op", `{"where": [{"col": "servers", "op": "like", "value": 1}]}`, ErrBadOp, "where[0].op"},
		{"string value on int col", `{"where": [{"col": "servers", "op": "eq", "value": "x"}]}`, ErrBadValue, "where[0].value"},
		{"number value on string col", `{"where": [{"col": "model", "op": "eq", "value": 3}]}`, ErrBadValue, "where[0].value"},
		{"bool value", `{"where": [{"col": "servers", "op": "eq", "value": true}]}`, ErrBadValue, "where[0].value"},
		{"second cond bad", `{"where": [{"col": "servers", "op": "eq", "value": 1}, {"col": "gone", "op": "eq", "value": 1}]}`, ErrUnknownColumn, "where[1].col"},
		{"group_by without aggs", `{"group_by": ["model"]}`, ErrBadShape, "group_by"},
		{"unknown group col", `{"group_by": ["nope"], "aggs": [{"op": "count"}]}`, ErrUnknownColumn, "group_by[0]"},
		{"select with aggs", `{"select": ["model"], "aggs": [{"op": "count"}]}`, ErrBadShape, "select"},
		{"unknown agg op", `{"aggs": [{"op": "median", "col": "epoch_s"}]}`, ErrBadAgg, "aggs[0].op"},
		{"agg on string col", `{"aggs": [{"op": "min", "col": "model"}]}`, ErrBadAgg, "aggs[0].op"},
		{"unknown agg col", `{"aggs": [{"op": "sum", "col": "nope"}]}`, ErrUnknownColumn, "aggs[0].col"},
		{"unknown count col", `{"aggs": [{"op": "count", "col": "nope"}]}`, ErrUnknownColumn, "aggs[0].col"},
		{"duplicate agg name", `{"aggs": [{"op": "count"}, {"op": "count"}]}`, ErrBadShape, "aggs[1].as"},
		{"unknown select col", `{"select": ["nope"]}`, ErrUnknownColumn, "select[0]"},
		{"order_by unknown col", `{"order_by": [{"col": "nope"}]}`, ErrUnknownColumn, "order_by[0].col"},
		{"order_by col projected away", `{"select": ["model"], "order_by": [{"col": "servers"}]}`, ErrUnknownColumn, "order_by[0].col"},
		{"order_by scan col after aggs", `{"aggs": [{"op": "count"}], "order_by": [{"col": "epoch_s"}]}`, ErrUnknownColumn, "order_by[0].col"},
		{"negative limit", `{"limit": -1}`, ErrBadLimit, "limit"},
		{"epochs col on cases", `{"where": [{"col": "epoch_stall_pct", "op": "lt", "value": 5}]}`, ErrUnknownColumn, "where[0].col"},
		{"cases col on bare epochs", `{"from": "epochs", "where": [{"col": "model", "op": "eq", "value": "resnet18"}]}`, ErrUnknownColumn, "where[0].col"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseQuery([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseQuery(%s) = nil error", tc.src)
			}
			if tc.sentinel == nil {
				var fe *FieldError
				if errors.As(err, &fe) {
					t.Fatalf("got FieldError %v, want a JSON-level error", err)
				}
				return
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err %v does not wrap %v", err, tc.sentinel)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("err %v is not a *FieldError", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("Field = %q, want %q", fe.Field, tc.field)
			}
		})
	}
}

// TestParseQueryAccepts: the join sees both epoch and identity columns.
func TestParseQueryAccepts(t *testing.T) {
	ok := []string{
		`{}`,
		`{"from": "epochs", "join": true, "where": [{"col": "model", "op": "eq", "value": "resnet18"}, {"col": "epoch_stall_pct", "op": "lt", "value": 5}]}`,
		`{"aggs": [{"op": "count", "col": "case_id"}]}`,
		`{"group_by": ["loader"], "aggs": [{"op": "avg", "col": "stall_pct"}], "order_by": [{"col": "loader", "desc": true}], "limit": 3}`,
	}
	for _, src := range ok {
		if _, err := ParseQuery([]byte(src)); err != nil {
			t.Fatalf("ParseQuery(%s): %v", src, err)
		}
	}
}

// --- schema ---

// TestSchemaMatchesStore: Schema is the single source of truth — row widths
// and join widths line up with it, names are unique, identity split is
// where the docs say.
func TestSchemaMatchesStore(t *testing.T) {
	st := testStore(11, 3)
	tables := Schema()
	if len(tables) != 2 || tables[0].Name != "cases" || tables[1].Name != "epochs" {
		t.Fatalf("Schema() tables = %+v", tables)
	}
	if got, want := len(st.appendCaseRow(nil, 0)), len(tables[0].Cols); got != want {
		t.Fatalf("case row width %d != schema %d", got, want)
	}
	if got, want := len(st.appendEpochRow(nil, 0, 0)), len(tables[1].Cols); got != want {
		t.Fatalf("epoch row width %d != schema %d", got, want)
	}
	if got, want := len(joinCols()), len(tables[1].Cols)+caseIdentityEnd-1; got != want {
		t.Fatalf("join width %d != %d", got, want)
	}
	for _, tb := range append(tables, Table{Name: "join", Cols: joinCols()}) {
		seen := map[string]bool{}
		for _, c := range tb.Cols {
			if seen[c.Name] {
				t.Fatalf("table %s: duplicate column %q", tb.Name, c.Name)
			}
			seen[c.Name] = true
		}
	}
	if tables[0].Cols[caseIdentityEnd-1].Name != "seed" {
		t.Fatalf("identity must end at seed, got %q", tables[0].Cols[caseIdentityEnd-1].Name)
	}
	// Every cell's type matches its column's declared type.
	for i, c := range st.cases {
		for j, v := range st.appendCaseRow(nil, i) {
			if v.Type != tables[0].Cols[j].Type {
				t.Fatalf("cases[%d].%s: type %v != %v", i, tables[0].Cols[j].Name, v.Type, tables[0].Cols[j].Type)
			}
		}
		for e := range c.Result.Epochs {
			for j, v := range st.appendEpochRow(nil, i, e) {
				if v.Type != tables[1].Cols[j].Type {
					t.Fatalf("cases[%d].epochs[%d].%s: type %v != %v", i, e, tables[1].Cols[j].Name, v.Type, tables[1].Cols[j].Type)
				}
			}
		}
	}
}

// --- NDJSON ---

type flushRecorder struct {
	bytes.Buffer
	flushes int
}

func (f *flushRecorder) Flush() error { f.flushes++; return nil }

func TestWriteNDJSON(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	st := NewStore()
	st.Add(synthCase(r, "s", "r", "c0", 1, 4, 16, 0.25))
	st.Add(synthCase(r, "s", "r", "c1", 2, 8, 32, 0.02))
	q, err := ParseQuery([]byte(`{"select":["case_id","case","servers","stall_pct"],"order_by":[{"col":"case_id"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(st).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var w flushRecorder
	n, err := WriteNDJSON(&w, rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if w.flushes != 2 {
		t.Fatalf("flushes = %d, want 2 (one per row)", w.flushes)
	}
	lines := strings.Split(strings.TrimRight(w.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	// Key order must be column order, and values round-trip via encoding/json.
	for i, ln := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if got := int(m["case_id"].(float64)); got != i {
			t.Fatalf("line %d case_id = %d", i, got)
		}
		if !strings.HasPrefix(ln, fmt.Sprintf(`{"case_id":%d,"case":`, i)) {
			t.Fatalf("line %d keys out of column order: %s", i, ln)
		}
	}
	if !strings.Contains(lines[0], `"stall_pct":25`) {
		t.Fatalf("float rendering changed: %s", lines[0])
	}
}

// TestAppendFloatMatchesJSON: NDJSON float cells are byte-identical to
// json.Marshal over 100k+ seeded floats — random bit patterns, integers,
// subnormals, -0, and both edges of the 'e'-notation window (1e-6, 1e21).
func TestAppendFloatMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 1e-7, 1e20, 1e21, 1e22, 123456789,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64}
	for _, edge := range []float64{1e-6, 1e21} {
		for _, f := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1))} {
			fs = append(fs, f, -f)
		}
	}
	for len(fs) < 120000 {
		var f float64
		switch r.Intn(5) {
		case 0: // any finite bit pattern
			f = math.Float64frombits(r.Uint64())
		case 1: // an integer
			f = float64(r.Int63n(1<<53) - 1<<52)
		case 2: // a subnormal
			f = math.Float64frombits(r.Uint64() & (1<<52 - 1))
		case 3: // near the lower 'e' edge
			f = 1e-6 * (0.5 + r.Float64())
		default: // near the upper 'e' edge
			f = 1e21 * (0.5 + r.Float64())
		}
		if r.Intn(2) == 0 {
			f = -f
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
	}
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%b) = %s, json.Marshal = %s", f, got, want)
		}
	}
}

// TestGroupKeysDoNotCollide: spec and row names are free strings, so a key
// that joins cells with a separator byte merges ("x\x002y", "z") with
// ("x", "y\x002z") into one group of two. They are two groups of one.
func TestGroupKeysDoNotCollide(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	st := NewStore()
	st.Add(synthCase(r, "x\x002y", "z", "c0", 1, 4, 16, 0.1))
	st.Add(synthCase(r, "x", "y\x002z", "c1", 1, 4, 16, 0.1))
	q, err := ParseQuery([]byte(`{"group_by":["spec","row"],"aggs":[{"op":"count"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(st).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{
		{strVal("x"), strVal("y\x002z"), intVal(1)},
		{strVal("x\x002y"), strVal("z"), intVal(1)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

// TestValueString pins the cell renderings, and the group-key encoding keeps
// cells of different types apart.
func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{intVal(-3), "-3"},
		{floatVal(2.5), "2.5"},
		{floatVal(1e21), "1e+21"},
		{strVal("x"), "x"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Fatalf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
	// Type tags keep int 1 and string "1" in different groups.
	if string(appendKey(nil, intVal(1))) == string(appendKey(nil, strVal("1"))) {
		t.Fatal("group keys collide across types")
	}
}
