package live

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortFit is the straggler fit as it was before fits merged: every refit
// sorts a copy of all samples, then all their deviations.
type sortFit struct {
	samples     []float64
	sinceFit    int
	median, mad float64
	fitted      bool
}

func (s *sortFit) add(d float64, minSamples int) {
	if len(s.samples) < stragglerCap {
		s.samples = append(s.samples, d)
	}
	s.sinceFit++
	if !s.fitted && len(s.samples) >= minSamples || s.sinceFit >= recomputeEvery {
		sorted := append([]float64(nil), s.samples...)
		sort.Float64s(sorted)
		s.median = sorted[len(sorted)/2]
		dev := make([]float64, len(sorted))
		for i, v := range sorted {
			d := v - s.median
			if d < 0 {
				d = -d
			}
			dev[i] = d
		}
		sort.Float64s(dev)
		s.mad = dev[len(dev)/2]
		s.fitted = true
		s.sinceFit = 0
	}
}

// TestStragglerFitMatchesSortReference holds the merging fit to the sorting
// one, bit for bit, after every insert of streams with duplicates, constant
// runs, heavy tails and more samples than the cap. (Durations are never NaN
// or -0, and the streams hold neither.)
func TestStragglerFitMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streams := map[string]func(i int) float64{
		"uniform":    func(int) float64 { return rng.Float64() * 10 },
		"duplicates": func(int) float64 { return float64(rng.Intn(6)) * 0.25 },
		"constant runs": func(i int) float64 {
			return float64((i / 700) % 3)
		},
		"heavy tail": func(int) float64 { return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3)) },
		"tiny gaps":  func(int) float64 { return 1 + float64(rng.Intn(40))*0x1p-52 },
	}
	for name, next := range streams {
		for _, minSamples := range []int{1, 16, 100} {
			n := 2000
			if minSamples == 16 {
				n = stragglerCap + 1500
			}
			var got stragglerAcc
			var want sortFit
			for i := 0; i < n; i++ {
				d := next(i)
				got.add(d, minSamples)
				want.add(d, minSamples)
				if got.fitted != want.fitted || got.samples() != len(want.samples) ||
					math.Float64bits(got.median) != math.Float64bits(want.median) ||
					math.Float64bits(got.mad) != math.Float64bits(want.mad) {
					t.Fatalf("%s, min %d, insert %d: fitted %v median %v mad %v over %d samples; sorting gives %v %v %v over %d",
						name, minSamples, i, got.fitted, got.median, got.mad, got.samples(),
						want.fitted, want.median, want.mad, len(want.samples))
				}
			}
		}
	}
}
