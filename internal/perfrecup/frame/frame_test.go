package frame

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"testing"
)

func sample() *Frame {
	return MustNew(
		Strings("worker", "w0", "w0", "w1", "w1", "w2"),
		Ints("thread", 1, 2, 1, 2, 1),
		Floats("duration", 1.5, 2.5, 3.5, 4.5, 10.5),
		Bools("io", true, false, true, false, true),
	)
}

func TestNewValidations(t *testing.T) {
	if _, err := New(Ints("a", 1, 2), Ints("a", 3, 4)); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := New(Ints("a", 1, 2), Ints("b", 3)); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestAccessorsAndDtypes(t *testing.T) {
	f := sample()
	if f.NRows() != 5 || f.NCols() != 4 {
		t.Fatalf("shape = %dx%d", f.NRows(), f.NCols())
	}
	if f.Col("worker").Str(2) != "w1" || f.Col("thread").Int(1) != 2 {
		t.Fatal("element access wrong")
	}
	if f.Col("duration").Float(4) != 10.5 || !f.Col("io").Bool(0) {
		t.Fatal("element access wrong")
	}
	if f.Col("thread").Float(0) != 1.0 {
		t.Fatal("Int column must convert via Float")
	}
	if !f.HasCol("io") || f.HasCol("nope") {
		t.Fatal("HasCol wrong")
	}
	if f.Col("duration").dtype != Float || Float.String() != "float" {
		t.Fatal("dtype reporting wrong")
	}
}

func TestColPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing column did not panic")
		}
	}()
	sample().Col("ghost")
}

func TestTypedAccessorPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Str on int column did not panic")
		}
	}()
	sample().Col("thread").Str(0)
}

func TestFilterSelectHead(t *testing.T) {
	f := sample()
	io := f.Filter(func(i int) bool { return f.Col("io").Bool(i) })
	if io.NRows() != 3 {
		t.Fatalf("filtered rows = %d", io.NRows())
	}
	sel := io.Select("worker", "duration")
	if sel.NCols() != 2 || sel.Columns()[0] != "worker" {
		t.Fatalf("select = %v", sel.Columns())
	}
	h := f.Head(2)
	if h.NRows() != 2 || h.Col("worker").Str(1) != "w0" {
		t.Fatalf("head = %v", h)
	}
	if f.Head(100).NRows() != 5 {
		t.Fatal("over-long head wrong")
	}
}

func TestSortBy(t *testing.T) {
	f := sample().SortBy("duration", true)
	if f.Col("duration").Float(0) != 10.5 {
		t.Fatalf("desc sort head = %v", f.Col("duration").Float(0))
	}
	f = f.SortBy("worker", false)
	if f.Col("worker").Str(0) != "w0" {
		t.Fatal("asc sort wrong")
	}
	// Stability: within w1, previous (desc duration) order preserved.
	if f.Col("worker").Str(2) != "w1" || f.Col("duration").Float(2) != 4.5 {
		t.Fatalf("stable sort violated: %v", f)
	}
}

func TestWithColumnAddAndReplace(t *testing.T) {
	f := sample()
	g := f.WithColumn(Floats("norm", 0.1, 0.2, 0.3, 0.4, 1.0))
	if g.NCols() != 5 {
		t.Fatal("WithColumn add failed")
	}
	h := g.WithColumn(Floats("norm", 1, 1, 1, 1, 1))
	if h.NCols() != 5 || h.Col("norm").Float(0) != 1 {
		t.Fatal("WithColumn replace failed")
	}
}

func TestGroupByAgg(t *testing.T) {
	f := sample()
	g := f.GroupBy("worker").Agg(
		Agg{Col: "duration", Fn: Sum},
		Agg{Col: "duration", Fn: Mean},
		Agg{Col: "duration", Fn: Count, As: "n"},
		Agg{Col: "duration", Fn: Max},
	)
	if g.NRows() != 3 {
		t.Fatalf("groups = %d", g.NRows())
	}
	// First-appearance order: w0, w1, w2.
	if g.Col("worker").Str(0) != "w0" || g.Col("duration_sum").Float(0) != 4.0 {
		t.Fatalf("w0 sum = %v", g.Col("duration_sum").Float(0))
	}
	if g.Col("duration_mean").Float(1) != 4.0 || g.Col("n").Int(1) != 2 {
		t.Fatal("w1 mean/count wrong")
	}
	if g.Col("duration_max").Float(2) != 10.5 {
		t.Fatal("w2 max wrong")
	}
}

func TestGroupByMultipleKeysAndStd(t *testing.T) {
	f := MustNew(
		Strings("a", "x", "x", "x", "y"),
		Ints("b", 1, 1, 2, 1),
		Floats("v", 2, 4, 9, 7),
	)
	g := f.GroupBy("a", "b").Agg(Agg{Col: "v", Fn: Std}, Agg{Col: "v", Fn: First})
	if g.NRows() != 3 {
		t.Fatalf("groups = %d", g.NRows())
	}
	// Group (x,1): values 2,4 -> std = sqrt(2).
	if got := g.Col("v_std").Float(0); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("std = %v", got)
	}
	if g.Col("v_first").Float(0) != 2 {
		t.Fatal("first wrong")
	}
	// Singleton group std = 0.
	if g.Col("v_std").Float(1) != 0 {
		t.Fatal("singleton std != 0")
	}
}

func TestInnerJoin(t *testing.T) {
	tasks := MustNew(
		Strings("host", "n0", "n0", "n1"),
		Ints("tid", 1, 2, 1),
		Strings("key", "t-a", "t-b", "t-c"),
	)
	segs := MustNew(
		Strings("host", "n0", "n0", "n1", "n9"),
		Ints("tid", 1, 1, 1, 5),
		Floats("bytes", 100, 200, 300, 999),
	)
	j, err := tasks.Join(segs, Inner, "host", "tid")
	if err != nil {
		t.Fatal(err)
	}
	if j.NRows() != 3 { // t-a matches two segs, t-c matches one, t-b none
		t.Fatalf("join rows = %d\n%v", j.NRows(), j)
	}
	keys := map[string]float64{}
	for i := 0; i < j.NRows(); i++ {
		keys[j.Col("key").Str(i)] += j.Col("bytes").Float(i)
	}
	if keys["t-a"] != 300 || keys["t-c"] != 300 || keys["t-b"] != 0 {
		t.Fatalf("join content = %v", keys)
	}
}

func TestLeftJoinFillsZeros(t *testing.T) {
	l := MustNew(Strings("k", "a", "b"), Ints("x", 1, 2))
	r := MustNew(Strings("k", "a"), Floats("y", 5.5), Strings("s", "hit"), Ints("n", 9))
	j, err := l.Join(r, Left, "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NRows() != 2 {
		t.Fatalf("rows = %d", j.NRows())
	}
	if !math.IsNaN(j.Col("y").Float(1)) || j.Col("s").Str(1) != "" || j.Col("n").Int(1) != 0 {
		t.Fatalf("left join fill wrong: %v", j)
	}
}

func TestJoinNameClashSuffix(t *testing.T) {
	l := MustNew(Strings("k", "a"), Floats("v", 1))
	r := MustNew(Strings("k", "a"), Floats("v", 2))
	j, err := l.Join(r, Inner, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !j.HasCol("v") || !j.HasCol("v_r") {
		t.Fatalf("columns = %v", j.Columns())
	}
	if j.Col("v").Float(0) != 1 || j.Col("v_r").Float(0) != 2 {
		t.Fatal("clash values wrong")
	}
}

func TestJoinErrors(t *testing.T) {
	l := MustNew(Strings("k", "a"))
	r := MustNew(Ints("k", 1))
	if _, err := l.Join(r, Inner, "k"); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
	if _, err := l.Join(r, Inner); err == nil {
		t.Fatal("empty key list accepted")
	}
	if _, err := l.Join(MustNew(Strings("other", "x")), Inner, "k"); err == nil {
		t.Fatal("missing key accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sample()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+f.NRows() || strings.Join(rows[0], ",") != strings.Join(f.Columns(), ",") {
		t.Fatalf("%d rows under header %v", len(rows), rows[0])
	}
	for i, row := range rows[1:] {
		for j, c := range f.cols {
			if want := fmt.Sprint(cell(c, i)); row[j] != want {
				t.Fatalf("row %d column %s = %q, want %s", i, c.name, row[j], want)
			}
		}
	}
}

// cell is element i of s as its Go value.
func cell(s *Series, i int) any {
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
