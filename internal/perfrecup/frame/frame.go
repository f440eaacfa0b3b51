// Package frame is a small, typed, columnar dataframe library — the uniform
// tabular representation PERFRECUP stores every data source in (Darshan
// records, Mofka task events, job metadata), "facilitating compliance with
// FAIR principles, especially interoperability and reusability" (§I). It
// supports the operations the paper's analyses need: filter, sort, group-by
// aggregation, hash joins on shared identifiers, and CSV round-trips.
package frame

import (
	"fmt"
	"math"
	"sort"
)

// Dtype is a column's element type.
type Dtype int

// Column element types.
const (
	Int Dtype = iota
	Float
	String
	Bool
)

// String returns the dtype name.
func (d Dtype) String() string {
	switch d {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Series is one named, typed column.
type Series struct {
	name  string
	dtype Dtype
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
}

// Ints creates an int64 column.
func Ints(name string, vals ...int64) *Series {
	return &Series{name: name, dtype: Int, ints: vals}
}

// Floats creates a float64 column.
func Floats(name string, vals ...float64) *Series {
	return &Series{name: name, dtype: Float, flts: vals}
}

// Strings creates a string column.
func Strings(name string, vals ...string) *Series {
	return &Series{name: name, dtype: String, strs: vals}
}

// Bools creates a bool column.
func Bools(name string, vals ...bool) *Series {
	return &Series{name: name, dtype: Bool, bools: vals}
}

// Name returns the column name.
func (s *Series) Name() string { return s.name }

// Len returns the number of elements.
func (s *Series) Len() int {
	switch s.dtype {
	case Int:
		return len(s.ints)
	case Float:
		return len(s.flts)
	case String:
		return len(s.strs)
	default:
		return len(s.bools)
	}
}

// Int returns element i of an Int column.
func (s *Series) Int(i int) int64 { s.mustBe(Int); return s.ints[i] }

// Float returns element i of a Float column (Int columns convert).
func (s *Series) Float(i int) float64 {
	switch s.dtype {
	case Float:
		return s.flts[i]
	case Int:
		return float64(s.ints[i])
	default:
		panic(fmt.Sprintf("frame: column %q (%v) is not numeric", s.name, s.dtype))
	}
}

// Str returns element i of a String column.
func (s *Series) Str(i int) string { s.mustBe(String); return s.strs[i] }

// Bool returns element i of a Bool column.
func (s *Series) Bool(i int) bool { s.mustBe(Bool); return s.bools[i] }

// Value returns element i as an any-typed value.
func (s *Series) Value(i int) any {
	switch s.dtype {
	case Int:
		return s.ints[i]
	case Float:
		return s.flts[i]
	case String:
		return s.strs[i]
	default:
		return s.bools[i]
	}
}

// keyString renders element i as a grouping/join key.
func (s *Series) keyString(i int) string {
	switch s.dtype {
	case Int:
		return fmt.Sprintf("i%d", s.ints[i])
	case Float:
		return fmt.Sprintf("f%g", s.flts[i])
	case String:
		return "s" + s.strs[i]
	default:
		if s.bools[i] {
			return "b1"
		}
		return "b0"
	}
}

func (s *Series) mustBe(d Dtype) {
	if s.dtype != d {
		panic(fmt.Sprintf("frame: column %q is %v, not %v", s.name, s.dtype, d))
	}
}

// IsNumeric reports whether the column supports Float().
func (s *Series) IsNumeric() bool { return s.dtype == Int || s.dtype == Float }

// Floats64 returns the column as a float slice (numeric columns only).
func (s *Series) Floats64() []float64 {
	out := make([]float64, s.Len())
	for i := range out {
		out[i] = s.Float(i)
	}
	return out
}

// take builds a new series from the given row indices.
func (s *Series) take(idx []int) *Series {
	out := &Series{name: s.name, dtype: s.dtype}
	switch s.dtype {
	case Int:
		out.ints = make([]int64, len(idx))
		for j, i := range idx {
			out.ints[j] = s.ints[i]
		}
	case Float:
		out.flts = make([]float64, len(idx))
		for j, i := range idx {
			out.flts[j] = s.flts[i]
		}
	case String:
		out.strs = make([]string, len(idx))
		for j, i := range idx {
			out.strs[j] = s.strs[i]
		}
	default:
		out.bools = make([]bool, len(idx))
		for j, i := range idx {
			out.bools[j] = s.bools[i]
		}
	}
	return out
}

// appendValue appends element i of src (same dtype) to s.
func (s *Series) appendValue(src *Series, i int) {
	switch s.dtype {
	case Int:
		s.ints = append(s.ints, src.ints[i])
	case Float:
		s.flts = append(s.flts, src.flts[i])
	case String:
		s.strs = append(s.strs, src.strs[i])
	default:
		s.bools = append(s.bools, src.bools[i])
	}
}

// appendZero appends the dtype's zero value (used for left-join misses).
func (s *Series) appendZero() {
	switch s.dtype {
	case Int:
		s.ints = append(s.ints, 0)
	case Float:
		s.flts = append(s.flts, math.NaN())
	case String:
		s.strs = append(s.strs, "")
	default:
		s.bools = append(s.bools, false)
	}
}

// Frame is an immutable-by-convention table of equal-length columns.
type Frame struct {
	cols   []*Series
	byName map[string]int
}

// New builds a frame, validating that all columns have equal length and
// unique names.
func New(cols ...*Series) (*Frame, error) {
	f := &Frame{byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := f.byName[c.name]; dup {
			return nil, fmt.Errorf("frame: duplicate column %q", c.name)
		}
		if i > 0 && c.Len() != cols[0].Len() {
			return nil, fmt.Errorf("frame: column %q has %d rows, want %d", c.name, c.Len(), cols[0].Len())
		}
		f.byName[c.name] = i
		f.cols = append(f.cols, c)
	}
	return f, nil
}

// MustNew is New panicking on error, for statically correct construction.
func MustNew(cols ...*Series) *Frame {
	f, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

// NRows returns the row count.
func (f *Frame) NRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NCols returns the column count.
func (f *Frame) NCols() int { return len(f.cols) }

// Columns returns the column names in order.
func (f *Frame) Columns() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.name
	}
	return out
}

// Col returns the named column; it panics if absent (analysis code treats a
// missing column as a schema bug).
func (f *Frame) Col(name string) *Series {
	i, ok := f.byName[name]
	if !ok {
		panic(fmt.Sprintf("frame: no column %q (have %v)", name, f.Columns()))
	}
	return f.cols[i]
}

// HasCol reports whether the column exists.
func (f *Frame) HasCol(name string) bool {
	_, ok := f.byName[name]
	return ok
}

// Select returns a frame with only the named columns, in the given order.
func (f *Frame) Select(names ...string) *Frame {
	var cols []*Series
	for _, n := range names {
		cols = append(cols, f.Col(n))
	}
	return MustNew(cols...)
}

// WithColumn returns a frame with the column appended (or replaced if the
// name exists).
func (f *Frame) WithColumn(s *Series) *Frame {
	if f.NCols() > 0 && s.Len() != f.NRows() {
		panic(fmt.Sprintf("frame: WithColumn %q has %d rows, want %d", s.name, s.Len(), f.NRows()))
	}
	var cols []*Series
	replaced := false
	for _, c := range f.cols {
		if c.name == s.name {
			cols = append(cols, s)
			replaced = true
		} else {
			cols = append(cols, c)
		}
	}
	if !replaced {
		cols = append(cols, s)
	}
	return MustNew(cols...)
}

// Filter returns the rows for which keep returns true.
func (f *Frame) Filter(keep func(i int) bool) *Frame {
	var idx []int
	for i := 0; i < f.NRows(); i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return f.Take(idx)
}

// Take returns the frame restricted to the given row indices, in order.
func (f *Frame) Take(idx []int) *Frame {
	cols := make([]*Series, len(f.cols))
	for i, c := range f.cols {
		cols[i] = c.take(idx)
	}
	return MustNew(cols...)
}

// Head returns the first n rows (fewer if the frame is shorter).
func (f *Frame) Head(n int) *Frame {
	if n > f.NRows() {
		n = f.NRows()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return f.Take(idx)
}

// SortBy returns the frame sorted by the named column (stable; ascending
// unless desc).
func (f *Frame) SortBy(name string, desc bool) *Frame {
	col := f.Col(name)
	idx := make([]int, f.NRows())
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		switch col.dtype {
		case Int:
			return col.ints[a] < col.ints[b]
		case Float:
			return col.flts[a] < col.flts[b]
		case String:
			return col.strs[a] < col.strs[b]
		default:
			return !col.bools[a] && col.bools[b]
		}
	}
	sort.SliceStable(idx, func(i, j int) bool {
		if desc {
			return less(idx[j], idx[i])
		}
		return less(idx[i], idx[j])
	})
	return f.Take(idx)
}

// String renders a compact preview (up to 10 rows) for debugging.
func (f *Frame) String() string {
	s := fmt.Sprintf("Frame[%dx%d]", f.NRows(), f.NCols())
	n := f.NRows()
	if n > 10 {
		n = 10
	}
	s += fmt.Sprintf(" cols=%v", f.Columns())
	for i := 0; i < n; i++ {
		s += "\n "
		for _, c := range f.cols {
			s += fmt.Sprintf("%v\t", c.Value(i))
		}
	}
	return s
}
