package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream with the distribution helpers the
// platform and workload models need. Streams are split by name so that adding
// randomness to one component does not perturb the draws seen by another
// (essential for run-to-run comparability when ablating features).
type RNG struct {
	seed uint64
	r    *rand.Rand
}

// NewRNG returns a root stream for the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(int64(splitmix64(seed))))}
}

// Split derives an independent child stream identified by name. The child
// depends only on the parent's seed and the name, not on how many values the
// parent has produced.
func (g *RNG) Split(name string) *RNG {
	h := g.seed
	for _, c := range []byte(name) {
		h = splitmix64(h ^ uint64(c))
	}
	return NewRNG(h)
}

// splitmix64 is the SplitMix64 mixing function, used to derive well-spread
// seeds from correlated inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Normal returns a normal draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 { return mean + stddev*g.r.NormFloat64() }

// LogNormal returns exp(N(mu, sigma)). Used for heavy-tailed latency noise:
// I/O and network interference on shared HPC systems is classically
// lognormal-ish.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// LogNormalMean returns a lognormal draw scaled so its mean is mean and its
// coefficient of variation is cv. A cv of zero returns mean exactly.
func (g *RNG) LogNormalMean(mean, cv float64) float64 {
	if mean <= 0 || cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return g.LogNormal(mu, math.Sqrt(sigma2))
}

// Exponential returns an exponential draw with the given mean.
func (g *RNG) Exponential(mean float64) float64 { return g.r.ExpFloat64() * mean }

// IntBetween returns a uniform integer in [lo, hi] inclusive.
func (g *RNG) IntBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// JitterTime scales d by a lognormal factor with coefficient of variation cv.
func (g *RNG) JitterTime(d Time, cv float64) Time {
	if d <= 0 || cv <= 0 {
		return d
	}
	return Time(g.LogNormalMean(float64(d), cv))
}
