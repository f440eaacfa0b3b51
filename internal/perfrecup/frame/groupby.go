package frame

import (
	"fmt"
	"math"
)

// AggFunc identifies a group aggregation.
type AggFunc int

// Aggregations supported by GroupBy.Agg.
const (
	Sum AggFunc = iota
	Mean
	Min
	Max
	Count
	Std // sample standard deviation
	First
)

// String returns the aggregation's column-name suffix.
func (a AggFunc) String() string {
	switch a {
	case Sum:
		return "sum"
	case Mean:
		return "mean"
	case Min:
		return "min"
	case Max:
		return "max"
	case Count:
		return "count"
	case Std:
		return "std"
	case First:
		return "first"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// Agg pairs a source column with an aggregation.
type Agg struct {
	Col string
	Fn  AggFunc
	// As optionally names the output column; default "<col>_<fn>".
	As string
}

// GroupBy is a deferred grouping over one or more key columns.
type GroupBy struct {
	f    *Frame
	keys []string
}

// GroupBy starts a grouped aggregation over the key columns.
func (f *Frame) GroupBy(keys ...string) *GroupBy {
	for _, k := range keys {
		f.Col(k) // validate
	}
	return &GroupBy{f: f, keys: keys}
}

// Groups returns the row indices of each group, keyed by the concatenated
// key string, plus a deterministic (first-appearance) ordering of keys.
func (g *GroupBy) groups() (map[string][]int, []string) {
	byKey := make(map[string][]int)
	var order []string
	keyCols := make([]*Series, len(g.keys))
	for i, k := range g.keys {
		keyCols[i] = g.f.Col(k)
	}
	for r := 0; r < g.f.NRows(); r++ {
		key := ""
		for _, c := range keyCols {
			key += c.keyString(r) + "\x00"
		}
		if _, seen := byKey[key]; !seen {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], r)
	}
	return byKey, order
}

// Agg computes the aggregations per group. The result has the key columns
// (first-row representative values) followed by one column per aggregation,
// with groups in first-appearance order.
func (g *GroupBy) Agg(aggs ...Agg) *Frame {
	byKey, order := g.groups()

	keyOut := make([]*Series, len(g.keys))
	for i, k := range g.keys {
		keyOut[i] = &Series{name: k, dtype: g.f.Col(k).dtype}
	}
	aggOut := make([]*Series, len(aggs))
	for i, a := range aggs {
		name := a.As
		if name == "" {
			name = a.Col + "_" + a.Fn.String()
		}
		dt := Float
		if a.Fn == Count {
			dt = Int
		}
		if a.Fn == First {
			dt = g.f.Col(a.Col).dtype
		}
		aggOut[i] = &Series{name: name, dtype: dt}
	}

	for _, key := range order {
		rows := byKey[key]
		for i, k := range g.keys {
			keyOut[i].appendValue(g.f.Col(k), rows[0])
		}
		for i, a := range aggs {
			col := g.f.Col(a.Col)
			switch a.Fn {
			case Count:
				aggOut[i].ints = append(aggOut[i].ints, int64(len(rows)))
			case First:
				aggOut[i].appendValue(col, rows[0])
			default:
				aggOut[i].flts = append(aggOut[i].flts, aggregate(col, rows, a.Fn))
			}
		}
	}
	return MustNew(append(keyOut, aggOut...)...)
}

func aggregate(col *Series, rows []int, fn AggFunc) float64 {
	if len(rows) == 0 {
		return math.NaN()
	}
	switch fn {
	case Sum, Mean:
		s := 0.0
		for _, r := range rows {
			s += col.Float(r)
		}
		if fn == Mean {
			return s / float64(len(rows))
		}
		return s
	case Min:
		m := col.Float(rows[0])
		for _, r := range rows[1:] {
			if v := col.Float(r); v < m {
				m = v
			}
		}
		return m
	case Max:
		m := col.Float(rows[0])
		for _, r := range rows[1:] {
			if v := col.Float(r); v > m {
				m = v
			}
		}
		return m
	case Std:
		if len(rows) < 2 {
			return 0
		}
		mean := aggregate(col, rows, Mean)
		ss := 0.0
		for _, r := range rows {
			d := col.Float(r) - mean
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(rows)-1))
	default:
		panic(fmt.Sprintf("frame: unknown aggregation %v", fn))
	}
}
