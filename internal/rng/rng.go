// Package rng provides deterministic pseudo-random number generation and
// the discrete samplers used throughout the FrogWild reproduction:
// uniform, geometric, binomial, Zipf and multinomial splitting.
//
// Determinism is a first-class requirement: the distributed engine must
// produce bit-identical results for a given seed regardless of goroutine
// scheduling. Every consumer therefore derives an independent Stream from
// (seed, machine, superstep, purpose) rather than sharing a generator.
//
// The generator is xoshiro256** seeded through splitmix64, the standard
// construction recommended by the xoshiro authors. It is not safe for
// concurrent use; derive one Stream per goroutine instead.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator
// (xoshiro256**). The zero value is not usable; construct streams with
// New or Derive.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used to expand seeds into full generator states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := seeded(seed)
	return &st
}

func seeded(seed uint64) (st Stream) {
	sm := seed
	st.s0 = splitmix64(&sm)
	st.s1 = splitmix64(&sm)
	st.s2 = splitmix64(&sm)
	st.s3 = splitmix64(&sm)
	return st
}

// Derive returns an independent Stream keyed by the given labels. It is
// the canonical way to obtain a per-(machine, superstep, purpose) stream
// that does not correlate with any other stream derived from the same
// seed with different labels.
func Derive(seed uint64, labels ...uint64) *Stream {
	st := DeriveValue(seed, labels...)
	return &st
}

// DeriveValue is Derive returning the Stream by value: no heap
// allocation, for callers that derive one stream per walk and keep it
// in a slab (package walk).
func DeriveValue(seed uint64, labels ...uint64) Stream {
	return seeded(DerivePrefix(seed, labels...).acc)
}

// Prefix is DeriveValue's state after a leading run of labels. Labels
// fold left to right, so streams that share every label but the last
// can fold the shared ones once (per source, say, not per walk).
type Prefix struct{ sm, acc uint64 }

// DerivePrefix folds seed and labels as DeriveValue does and stops
// before the stream is seeded.
func DerivePrefix(seed uint64, labels ...uint64) Prefix {
	// Mix each label through splitmix64 so that adjacent label values
	// yield uncorrelated states.
	p := Prefix{sm: seed ^ 0x6a09e667f3bcc909}
	p.acc = splitmix64(&p.sm)
	for _, l := range labels {
		p = p.fold(l)
	}
	return p
}

func (p Prefix) fold(l uint64) Prefix {
	p.sm ^= l * 0x9e3779b97f4a7c15
	p.acc ^= splitmix64(&p.sm)
	return p
}

// Value returns the stream of the prefix's labels followed by last:
// DerivePrefix(seed, ls...).Value(l) is DeriveValue(seed, ls..., l).
func (p Prefix) Value(last uint64) Stream {
	return seeded(p.fold(last).acc)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint64n returns a uniformly distributed integer in [0, n). It panics
// if n == 0. Uses Lemire's nearly-divisionless bounded method.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's method: multiply-shift with rejection of the biased zone.
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with
// success probability p, counted as the number of failures before the
// first success (support {0, 1, 2, ...}). This is the distribution of
// the number of random-walk steps a frog performs before teleporting,
// with p = pT. It panics if p <= 0 or p > 1.
func (r *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	return geometricAt(r.Uint64()>>11, math.Log1p(-p))
}

// geometricAt is Geometric's inversion at the 53-bit uniform x (what
// Float64 scales into [0,1)): floor(log(U) / log(1-p)) with U = 1 - x·2⁻⁵³
// in (0,1] and logq = log1p(-p).
func geometricAt(x uint64, logq float64) int {
	u := 1 - float64(x)*0x1p-53
	g := math.Floor(math.Log(u) / logq)
	if g < 0 {
		return 0
	}
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

// Binomial returns a sample from Binomial(n, p). For small n·p it uses
// exact inversion by sequential search; for large n it uses per-trial
// simulation split via the first-success geometric trick, keeping the
// sampler exact (no normal approximation) while staying O(n·p) expected
// time.
func (r *Stream) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with n < 0")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry to keep p <= 1/2, which bounds the expected
	// number of geometric skips below n/2 + 1.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	// Count successes by jumping between them with geometric gaps:
	// the index of the next success after position i is
	// i + 1 + Geometric(p). Expected work is O(n·p + 1). Each gap is
	// Geometric's own draw and inversion, with its log1p taken once.
	logq := math.Log1p(-p)
	count := 0
	i := -1
	for {
		gap := geometricAt(r.Uint64()>>11, logq)
		// Guard against overflow of i + 1 + gap.
		if gap >= n-i {
			break
		}
		i += 1 + gap
		if i >= n {
			break
		}
		count++
	}
	return count
}

// Perm fills dst with a uniformly random permutation of [0, len(dst)).
func (r *Stream) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	Shuffle(r, dst)
}

// Shuffle permutes xs in place by Fisher–Yates. Its swaps depend only
// on indices, so for the same stream state xs[i] ends up holding the
// element that started at Perm's dst[i].
func Shuffle[T any](r *Stream, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// MultinomialSplit distributes total items across len(out) buckets
// uniformly at random (each item independently picks a bucket), writing
// the per-bucket counts into out (frog counts, which every caller keeps
// as int64). It conserves the total exactly. The expected cost is
// O(len(out)) via sequential conditional binomials rather than
// O(total).
func (r *Stream) MultinomialSplit(total int, out []int64) {
	k := len(out)
	if k == 0 {
		if total != 0 {
			panic("rng: MultinomialSplit with no buckets")
		}
		return
	}
	remaining := total
	for i := 0; i < k-1; i++ {
		if remaining == 0 {
			out[i] = 0
			continue
		}
		// Conditional distribution of bucket i given the remainder is
		// Binomial(remaining, 1/(k-i)).
		x := r.Binomial(remaining, 1/float64(k-i))
		out[i] = int64(x)
		remaining -= x
	}
	out[k-1] = int64(remaining)
}
