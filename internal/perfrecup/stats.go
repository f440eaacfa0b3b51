package perfrecup

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (0 for fewer than 2 values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// MinMax returns the extremes (NaNs for empty input).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0..100) by linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	w := rank - float64(lo)
	return s[lo]*(1-w) + s[hi]*w
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series (NaN if degenerate).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of two equal-length
// series.
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (ties share the mean rank).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Histogram bins values into nbins equal-width bins over [lo, hi]; values
// outside the range clamp into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram computes the histogram.
func NewHistogram(xs []float64, lo, hi float64, nbins int) Histogram {
	if nbins <= 0 {
		nbins = 1
	}
	h := Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	width := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := 0
		if width > 0 {
			b = int((x - lo) / width)
		}
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
	}
	return h
}

// Total returns the total count across bins.
func (h Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}
