package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random stream with the distribution helpers the
// simulator needs. It wraps math/rand with an explicit source so separate
// subsystems (availability, workload, ...) can own independent streams
// derived from one master seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Derive returns a new independent stream deterministically derived from
// this one. Streams derived in the same order from the same seed are
// identical across runs.
func (g *RNG) Derive() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Exp returns an exponential variate with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*g.r.Float64()
}

// LogNormal returns a log-normal variate parameterized by the mean and
// coefficient of variation (stddev/mean) of the *resulting* distribution,
// which is the natural way to calibrate job-demand distributions from the
// paper's per-user means.
func (g *RNG) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(g.r.NormFloat64()*math.Sqrt(sigma2) + mu)
}

// HyperExp returns a two-phase hyperexponential variate: with probability
// p the mean is m1, otherwise m2. Used for availability-interval lengths,
// which the paper's reference [1] reports as a mix of short and very long
// intervals.
func (g *RNG) HyperExp(p, m1, m2 float64) float64 {
	if g.r.Float64() < p {
		return g.Exp(m1)
	}
	return g.Exp(m2)
}

// Poisson returns a Poisson variate with the given mean (Knuth's method;
// fine for the small means used here).
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1_000_000 { // numerical guard
			return k
		}
	}
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
