package query

import (
	"slices"
	"strconv"

	"datastall/internal/experiments"
)

// Value is one cell of a result row: a tagged union over the three column
// types, comparable without allocation.
type Value struct {
	Type ColType
	I    int64
	F    float64
	S    string
}

func intVal(i int64) Value     { return Value{Type: TypeInt, I: i} }
func floatVal(f float64) Value { return Value{Type: TypeFloat, F: f} }
func strVal(s string) Value    { return Value{Type: TypeString, S: s} }

// num returns the cell as a float64 for comparisons and arithmetic; only
// valid for numeric types.
func (v Value) num() float64 {
	if v.Type == TypeInt {
		return float64(v.I)
	}
	return v.F
}

// String renders the cell for debugging and test output.
func (v Value) String() string {
	switch v.Type {
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
	return v.S
}

// compare orders two same-type cells: numerics numerically, strings
// lexicographically.
func compare(a, b Value) int {
	if a.Type == TypeString {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
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

// Store is an append-only store of finished cases, held by reference: Add
// keeps the pointer and copies nothing, and a scan reads each column from
// the case (and its Result.Epochs) when it reaches it. A case must not be
// mutated after Add; every producer (spec sweeps, suite runs, the job
// service, report loading) treats a capture as immutable once made.
// Ingestion is not goroutine-safe; a built store may be queried
// concurrently. The zero value is not usable — call NewStore.
type Store struct {
	cases []*experiments.CaseResult
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Len reports the number of ingested cases.
func (s *Store) Len() int { return len(s.cases) }

// Grow makes room for n more cases, so that many adds do not reallocate.
func (s *Store) Grow(n int) { s.cases = slices.Grow(s.cases, n) }

// AddCases ingests a batch of finished cases (e.g. report.Cases after a
// spec run, SuiteResult.SuiteCases() after a suite, or
// experiments.LoadSuiteCases of a saved report). Case IDs are assigned in
// ingestion order, starting at 0.
func (s *Store) AddCases(cases []*experiments.CaseResult) {
	s.cases = append(s.cases, cases...)
}

// Add ingests one finished case and returns its assigned case_id.
func (s *Store) Add(c *experiments.CaseResult) int64 {
	s.cases = append(s.cases, c)
	return int64(len(s.cases) - 1)
}

// The def slices are immutable after init; scans share them.
var (
	allCaseDefs  = caseDefs()
	allEpochDefs = epochDefs()
)

// appendCaseRow appends case id's columns, in caseCols order, to row.
func (s *Store) appendCaseRow(row []Value, id int) []Value {
	c := s.cases[id]
	for _, d := range allCaseDefs {
		row = append(row, d.get(int64(id), c))
	}
	return row
}

// appendEpochRow appends epoch number epoch of case id, in epochCols order,
// to row.
func (s *Store) appendEpochRow(row []Value, id, epoch int) []Value {
	e := &s.cases[id].Result.Epochs[epoch]
	for _, d := range allEpochDefs {
		row = append(row, d.get(int64(id), int64(epoch), e))
	}
	return row
}

// appendIdentity appends case id's identity columns (spec .. seed) to row,
// for the join.
func (s *Store) appendIdentity(row []Value, id int) []Value {
	c := s.cases[id]
	for _, d := range allCaseDefs[1:caseIdentityEnd] {
		row = append(row, d.get(int64(id), c))
	}
	return row
}
