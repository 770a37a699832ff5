package sim

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core,
// xorshift mix) used everywhere the reproduction needs randomness, so that
// every experiment is bit-for-bit reproducible from its seed without
// depending on math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed zero is remapped so the
// generator never degenerates.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics when n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with skew s >= 0
// (s==0 is uniform). It uses rejection-free inverse-CDF over precomputed
// weights for small n, falling back to a power-law transform for large n.
type Zipf struct {
	rng *RNG
	cdf []float64
	n   int
	s   float64
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	z := &Zipf{rng: rng, n: n, s: s}
	if n <= 1<<16 {
		cdf := make([]float64, n)
		var sum float64
		for i := 0; i < n; i++ {
			w := 1.0
			if s > 0 {
				w = 1.0 / pow(float64(i+1), s)
			}
			sum += w
			cdf[i] = sum
		}
		for i := range cdf {
			cdf[i] /= sum
		}
		z.cdf = cdf
	}
	return z
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

// Next draws one sample.
func (z *Zipf) Next() int {
	if z.cdf != nil {
		u := z.rng.Float64()
		lo, hi := 0, len(z.cdf)
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= z.n {
			lo = z.n - 1
		}
		return lo
	}
	// Approximate power-law for very large n.
	u := z.rng.Float64()
	x := math.Pow(float64(z.n), 1-z.s*u)
	i := int(x) % z.n
	if i < 0 {
		i = -i
	}
	return i
}
