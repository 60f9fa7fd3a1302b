// Package stats provides the deterministic randomness and numerical
// machinery used by the reproduction: a seedable SplitMix64 /
// xoshiro256** RNG, log-space binomial and Poisson tail probabilities
// (the §III attack models behind Figs. 6-10 operate on probabilities as
// small as 1e-20), a Zipf sampler for workload row locality (Fig. 14's
// synthetic traces), and the summary statistics (geometric means) the
// §VI performance figures aggregate with.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Every randomized structure in the
// repository draws from an RNG derived from the experiment seed so all
// results are bit-reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the xoshiro state. A zero
	// state would be absorbing, and SplitMix64 guarantees non-zero
	// output for any input sequence.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new RNG deterministically derived from r's current
// state, advancing r. Use it to hand independent streams to substructures.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, _ := mul64(v, uint64(n))
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask+a0*b1)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
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

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of Bernoulli(p) trials up to and including the
// first success. For very small p it uses the inverse-CDF method to avoid
// looping. Returns at least 1. Panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) float64 {
	if p <= 0 || p > 1 {
		panic("stats: Geometric probability out of (0,1]")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return math.Ceil(math.Log(u) / math.Log1p(-p))
}

// Geom is a geometric sampler with a fixed success probability. It
// precomputes log(1-p) once, which Geometric recomputes on every draw —
// a measurable cost for the trace generators, which sample one gap per
// memory access with the same p for the whole run. Next consumes the
// RNG's stream exactly like Geometric(p) and, because the same
// math.Log1p(-p) value feeds the same division, produces bit-identical
// samples.
type Geom struct {
	rng  *RNG
	logq float64
	one  bool
}

// NewGeom returns a geometric sampler over r with success probability p.
// Panics if p <= 0 or p > 1, mirroring Geometric.
func NewGeom(r *RNG, p float64) *Geom {
	if p <= 0 || p > 1 {
		panic("stats: Geometric probability out of (0,1]")
	}
	return &Geom{rng: r, logq: math.Log1p(-p), one: p == 1}
}

// Next returns the next geometric sample (at least 1).
func (g *Geom) Next() float64 {
	if g.one {
		return 1
	}
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	return math.Ceil(math.Log(u) / g.logq)
}

// Poisson returns a sample from the Poisson distribution with mean lambda.
// For small lambda it uses Knuth's product method; for large lambda a
// normal approximation with continuity correction (adequate for the
// workload models that use it).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := r.Normal()*math.Sqrt(lambda) + lambda
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// PoissonRunLength returns the number of Poisson(lambda) draws up to and
// including the first one that is at least k, consuming exactly the
// uniforms that many r.Poisson(lambda) calls would, so the stream after
// it is the same. It computes exp(-lambda) once instead of once per
// draw, and tests each draw's first uniform as an integer: Float64 is
// (x>>11)/2^53, so u <= exp(-lambda) holds exactly when
// x>>11 <= floor(exp(-lambda)·2^53). Only the ~lambda fraction of draws
// that fail that test continue Knuth's product. lambda >= 30 falls back
// to r.Poisson. Panics if lambda <= 0 or k < 1, where no draw ever
// reaches k.
func (r *RNG) PoissonRunLength(lambda float64, k int) uint64 {
	if !(lambda > 0) || k < 1 {
		panic("stats: PoissonRunLength needs lambda > 0 and k >= 1")
	}
	var n uint64
	if lambda >= 30 {
		for {
			n++
			if r.Poisson(lambda) >= k {
				return n
			}
		}
	}
	l := math.Exp(-lambda)
	zero := uint64(l * (1 << 53)) // exact product; the conversion floors
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for {
		n++
		// r.Uint64 on the state held in locals (Go does not inline it).
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if x>>11 <= zero {
			continue // this draw is 0 < k
		}
		r.s = [4]uint64{s0, s1, s2, s3} // Float64 continues from here
		draw, p := 1, float64(x>>11)/(1<<53)
		for {
			p *= r.Float64()
			if p <= l {
				break
			}
			draw++
		}
		if draw >= k {
			return n
		}
		s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
	}
}

// Normal returns a standard normal sample (Box-Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Binomial returns a sample of the number of successes in n Bernoulli(p)
// trials. Small n·p uses explicit trials or Poisson approximation; large
// uses a normal approximation clamped to [0, n].
func (r *RNG) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	np := float64(n) * p
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	if np < 10 && p < 0.01 {
		k := r.Poisson(np)
		if k > n {
			k = n
		}
		return k
	}
	sd := math.Sqrt(np * (1 - p))
	k := int(r.Normal()*sd + np + 0.5)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
