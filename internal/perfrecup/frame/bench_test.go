package frame

import (
	"fmt"
	"testing"
)

func benchFrame(n int) *Frame {
	keys := make([]string, n)
	workers := make([]string, n)
	durs := make([]float64, n)
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("task-%06d", i)
		workers[i] = fmt.Sprintf("w%d", i%8)
		durs[i] = float64(i%977) / 100
		sizes[i] = int64(i%4096) << 10
	}
	return MustNew(
		Strings("key", keys...), Strings("worker", workers...),
		Floats("duration", durs...), Ints("size", sizes...),
	)
}

func BenchmarkGroupByAgg(b *testing.B) {
	f := benchFrame(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.GroupBy("worker").Agg(
			Agg{Col: "duration", Fn: Mean},
			Agg{Col: "size", Fn: Sum},
			Agg{Col: "duration", Fn: Count, As: "n"},
		)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	l := benchFrame(20000)
	r := benchFrame(20000).Select("key", "duration")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Join(r, Inner, "key"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortBy(b *testing.B) {
	f := benchFrame(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SortBy("duration", true)
	}
}
