// Package rng provides a small, deterministic pseudo-random number
// generator used for weight initialization and synthetic workload
// generation. Every experiment in this repository is seeded, so results
// are bit-reproducible across runs and platforms.
//
// The generator is SplitMix64 (for seeding) feeding xoshiro256**, which
// is fast, has a 2^256-1 period, and passes BigCrush. We do not use
// math/rand because we need stable cross-version streams: the Go team
// reserves the right to change math/rand's algorithm, and our recorded
// experiment outputs in EXPERIMENTS.md must stay reproducible.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value
// is not usable; construct with New.
type RNG struct {
	x xoshiro
	// cached spare Gaussian deviate for Box-Muller
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from seed. Distinct seeds produce
// decorrelated streams (SplitMix64 seeding).
func New(seed uint64) *RNG {
	var s [4]uint64
	sm := seed
	for i := range s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	return &RNG{x: xoshiro{s[0], s[1], s[2], s[3]}}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output, letting callers hand independent
// sources to concurrent workers.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiro is the xoshiro256** state. It is four words rather than an
// array so that a loop holding it in a local keeps it in registers.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// next returns the state after one draw and the draw's 64 bits.
func (x xoshiro) next() (xoshiro, uint64) {
	result := rotl(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rotl(x.s3, 45)
	return x, result
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var v uint64
	r.x, v = r.x.next()
	return v
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
//
// The compiler turns the division into a multiply by 2⁻⁵³; the
// conversion rounds that product on its own, so it never fuses with an
// add in a caller such as Norm.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float32 returns a uniformly distributed float32 in [0, 1).
func (r *RNG) Float32() float32 { return unit32(r.Uint64()) }

// unit32 maps 64 random bits to a float32 in [0, 1) from their top 24.
func unit32(v uint64) float32 { return float32(v>>40) / (1 << 24) }

// uniform maps f in [0, 1) to [lo, hi). The conversion rounds the
// product on its own, so no target fuses it with the add.
func uniform(lo, hi, f float32) float32 { return lo + float32((hi-lo)*f) }

// Uniform returns a float32 uniformly distributed in [lo, hi).
func (r *RNG) Uniform(lo, hi float32) float32 { return uniform(lo, hi, r.Float32()) }

// FillUniform sets dst[i] to the i-th of len(dst) successive
// Uniform(lo, hi) draws and leaves r where those calls would: same
// values, same order, same state after. It holds the generator state in
// locals for the whole slice and writes it back once, which makes it
// about twice as fast as a loop of Uniform calls.
func (r *RNG) FillUniform(dst []float32, lo, hi float32) {
	x := r.x
	var v uint64
	for i := range dst {
		x, v = x.next()
		dst[i] = uniform(lo, hi, unit32(v))
	}
	r.x = x
}

// Norm returns a normally distributed float64 with mean 0 and standard
// deviation 1, using the polar Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// Norm32 returns a normally distributed float32 with the given mean and
// standard deviation.
func (r *RNG) Norm32(mean, std float32) float32 {
	return mean + float32(std*float32(r.Norm()))
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
