package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Split("network")
	// Drawing from the root must not perturb a later identical split.
	for i := 0; i < 10; i++ {
		root.Uniform(0, 1)
	}
	b := NewRNG(42).Split("network")
	for i := 0; i < 50; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("Split stream depends on parent consumption")
		}
	}
}

func TestRNGSplitDistinctNames(t *testing.T) {
	root := NewRNG(42)
	a := root.Split("pfs")
	b := root.Split("nic")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uniform(0, 1) == b.Uniform(0, 1) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for distinct names look identical (%d/64 equal draws)", same)
	}
}

func TestRNGDistributionsBasicMoments(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	var sumU, sumN, sumE float64
	for i := 0; i < n; i++ {
		sumU += g.Uniform(2, 4)
		sumN += g.Normal(10, 2)
		sumE += g.Exponential(5)
	}
	if m := sumU / n; math.Abs(m-3) > 0.02 {
		t.Errorf("Uniform(2,4) mean = %.3f, want ~3", m)
	}
	if m := sumN / n; math.Abs(m-10) > 0.05 {
		t.Errorf("Normal(10,2) mean = %.3f, want ~10", m)
	}
	if m := sumE / n; math.Abs(m-5) > 0.1 {
		t.Errorf("Exponential(5) mean = %.3f, want ~5", m)
	}
}

func TestLogNormalMeanMatchesRequestedMean(t *testing.T) {
	g := NewRNG(9)
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.LogNormalMean(100, 0.3)
	}
	if m := sum / n; math.Abs(m-100) > 1.0 {
		t.Errorf("LogNormalMean(100, 0.3) mean = %.2f, want ~100", m)
	}
}

func TestLogNormalMeanDegenerate(t *testing.T) {
	g := NewRNG(9)
	if v := g.LogNormalMean(50, 0); v != 50 {
		t.Errorf("cv=0 should return mean exactly, got %v", v)
	}
	if v := g.LogNormalMean(0, 0.5); v != 0 {
		t.Errorf("mean=0 should return 0, got %v", v)
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	g := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := g.IntBetween(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntBetween(3,5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("IntBetween(3,5) never produced all of {3,4,5}: %v", seen)
	}
	if v := g.IntBetween(7, 7); v != 7 {
		t.Fatalf("IntBetween(7,7) = %d", v)
	}
	if v := g.IntBetween(9, 2); v != 9 {
		t.Fatalf("IntBetween with hi<lo should return lo, got %d", v)
	}
}

func TestJitterTime(t *testing.T) {
	g := NewRNG(11)
	if d := g.JitterTime(Second, 0); d != Second {
		t.Errorf("cv=0 must not jitter, got %v", d)
	}
	if d := g.JitterTime(0, 0.5); d != 0 {
		t.Errorf("zero duration must stay zero, got %v", d)
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += g.JitterTime(Second, 0.2).Seconds()
	}
	if m := sum / n; math.Abs(m-1) > 0.01 {
		t.Errorf("JitterTime mean = %.4f s, want ~1 s", m)
	}
}

// Property: Split is a pure function of (seed, name).
func TestSplitPureProperty(t *testing.T) {
	prop := func(seed uint64, name string) bool {
		a := NewRNG(seed).Split(name)
		b := NewRNG(seed).Split(name)
		for i := 0; i < 8; i++ {
			if a.r.Int63() != b.r.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: uniform draws respect their bounds.
func TestUniformBoundsProperty(t *testing.T) {
	g := NewRNG(13)
	prop := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := g.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
