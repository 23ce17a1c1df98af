// Package dist provides the deterministic random samplers that drive the
// synthetic workload generator.
//
// Every source of randomness in the repository flows through a Source
// created from an explicit seed, so a given seed reproduces a byte-identical
// trace and therefore identical tables and figures. The samplers cover the
// distributions the workload model needs: exponential inter-arrival times,
// log-normal file sizes, Zipf-like popularity for shared files and
// programs, and arbitrary empirical (weighted-choice) distributions for
// everything measured rather than modeled.
package dist

import (
	"math"
	"math/rand"
	"sort"
)

// Source is a deterministic random source. It is a thin wrapper around
// math/rand.Rand that exists so constructors can demand a seeded source and
// so helper samplers have one obvious home. Source is not safe for
// concurrent use; the simulator is single-goroutine by design.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a Source seeded with the given value.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Fork returns a new Source whose seed is derived from this source's
// stream. Forking gives each workload component an independent stream so
// adding draws to one component does not perturb the others.
func (s *Source) Fork() *Source {
	return NewSource(s.rng.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63n returns a uniform value in [0, n).
func (s *Source) Int63n(n int64) int64 { return s.rng.Int63n(n) }

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean returns 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// LogNormal returns a log-normally distributed value parameterized by its
// median and the sigma of the underlying normal. File sizes and open
// durations in the traced systems are heavy-tailed with a small median,
// which a log-normal fits well.
func (s *Source) LogNormal(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * math.Exp(s.rng.NormFloat64()*sigma)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent theta > 1
// being more skewed as theta grows. It is used for file and program
// popularity: a few shared headers and commands absorb most accesses.
type Zipf struct {
	z *rand.Zipf
	n int
}

// NewZipf creates a Zipf sampler over [0, n) with skew parameter sk > 1.
func NewZipf(s *Source, sk float64, n int) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf needs n > 0")
	}
	if sk <= 1 {
		panic("dist: NewZipf needs skew > 1")
	}
	return &Zipf{z: rand.NewZipf(s.rng, sk, 1, uint64(n-1)), n: n}
}

// Draw returns the next index in [0, n).
func (z *Zipf) Draw() int { return int(z.z.Uint64()) }

// N returns the population size.
func (z *Zipf) N() int { return z.n }

// Weighted selects indexes with probability proportional to fixed weights.
type Weighted struct {
	cum []float64 // cumulative weights
}

// NewWeighted builds a weighted chooser. It panics on an empty or
// non-positive-total weight vector; negative weights are rejected.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("dist: NewWeighted needs at least one weight")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("dist: NewWeighted weight must be non-negative")
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("dist: NewWeighted needs positive total weight")
	}
	return &Weighted{cum: cum}
}

// Draw returns an index chosen with probability weight[i]/sum(weights).
func (w *Weighted) Draw(s *Source) int {
	x := s.Float64() * w.cum[len(w.cum)-1]
	return sort.SearchFloat64s(w.cum, x)
}

// Empirical samples from a piecewise distribution described by (value,
// cumulative-fraction) breakpoints, interpolating log-uniformly between
// them. It turns a CDF read off one of the paper's figures directly into a
// sampler, which is how the workload calibration encodes the paper's
// measured distributions.
type Empirical struct {
	values []float64 // ascending
	cum    []float64 // ascending, last == 1
}

// NewEmpirical builds a sampler from breakpoints. values must be positive
// ascending; fractions must be ascending and end at 1.
func NewEmpirical(values, fractions []float64) *Empirical {
	if len(values) == 0 || len(values) != len(fractions) {
		panic("dist: NewEmpirical needs matching non-empty slices")
	}
	for i := range values {
		if values[i] <= 0 {
			panic("dist: NewEmpirical values must be positive")
		}
		if i > 0 && (values[i] <= values[i-1] || fractions[i] <= fractions[i-1]) {
			panic("dist: NewEmpirical breakpoints must be strictly ascending")
		}
	}
	if math.Abs(fractions[len(fractions)-1]-1) > 1e-9 {
		panic("dist: NewEmpirical fractions must end at 1")
	}
	v := make([]float64, len(values))
	f := make([]float64, len(fractions))
	copy(v, values)
	copy(f, fractions)
	return &Empirical{values: v, cum: f}
}

// Draw returns a sample. Within a segment the value is interpolated
// uniformly in log-space, which keeps small-value segments dense the way
// the paper's log-scale figures are.
func (e *Empirical) Draw(s *Source) float64 {
	u := s.Float64()
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.cum) {
		i = len(e.cum) - 1
	}
	hiV := e.values[i]
	hiF := e.cum[i]
	loV := hiV / 2 // implicit lower edge for the first segment
	loF := 0.0
	if i > 0 {
		loV = e.values[i-1]
		loF = e.cum[i-1]
	}
	if hiF == loF {
		return hiV
	}
	t := (u - loF) / (hiF - loF)
	return loV * math.Exp(t*math.Log(hiV/loV))
}
