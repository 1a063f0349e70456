// Package randsrc provides a bit-exact replica of the math/rand source
// that rand.NewSource(seed) returns, seeded in O(1).
//
// rand.NewSource seeds a 607-word additive lagged Fibonacci register
// (D. P. Mitchell and J. A. Reeds) from the Lehmer sequence
// x[n+1] = 48271·x[n] mod (2³¹−1), started at the normalised seed:
// state word i is x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i].
// It runs all 1,841 Lehmer steps up front, although most streams in this
// program draw a few dozen outputs. Since x[n] = x[0]·48271ⁿ mod (2³¹−1),
// a seeded word costs three modular multiplications given the
// precomputed power, so Source computes each word the first time the
// generator reads it. Output k (from 0) adds word 333−k, the feed, to
// word 606−k, the tap, and stores the sum in the feed word. The feed
// reads seeded words during the first 334 outputs and the tap during
// the first 273; after that both read words the generator has written,
// and the step is math/rand's own. The math/rand stream is frozen by
// the Go 1 compatibility promise, so the replica cannot drift.
package randsrc

const (
	rngLen = 607
	rngTap = 273

	// seedFeed is how many outputs after a seed the feed reads seeded
	// words (rngLen − rngTap); the tap does so for the first rngTap.
	seedFeed = rngLen - rngTap

	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerZero = 89482311 // math/rand's substitute for a zero seed
)

// lehmerPow[i] is 48271^(21+3i) mod (2³¹−1): the multiplier taking x[0]
// to the first Lehmer term of state word i.
var lehmerPow = func() (p [rngLen]uint32) {
	m := uint64(1)
	for range 21 {
		m = m * lehmerMul % lehmerMod
	}
	const mul3 = lehmerMul * lehmerMul % lehmerMod * lehmerMul % lehmerMod
	for i := range p {
		p[i] = uint32(m)
		m = m * mul3 % lehmerMod
	}
	return p
}()

// Source is a rand.Source64 whose stream is rand.NewSource(seed)'s bit
// for bit, at any length and after any re-seed. A zero Source must be
// seeded before use. Like math/rand's source it is not safe for
// concurrent use.
type Source struct {
	tap, feed int    // math/rand's register indices once seeding is done
	n         int    // outputs since Seed, counted up to seedFeed
	x0        uint64 // normalised Lehmer start value
	vec       [rngLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed re-keys the source, normalising the seed as math/rand does. The
// register keeps the previous stream's words until each is first read.
func (s *Source) Seed(seed int64) {
	x := seed % lehmerMod
	if x < 0 {
		x += lehmerMod
	}
	if x == 0 {
		x = lehmerZero
	}
	s.x0, s.n, s.tap = uint64(x), 0, 0
}

// Uint64 returns the next 64-bit output.
//
// Its steady state is math/rand's step. Seed leaves tap at 0, so each of
// the first seedFeed outputs takes the tap's wrap branch, which computes
// the seeded words the step reads and sets tap back to 0. The last of
// them hands over math/rand's own tap and feed. Int63 repeats this body
// so that neither method makes a call, as rngSource's do not.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		if s.n < seedFeed {
			k := s.n
			s.n++
			f, t := seedFeed-1-k, rngLen-1-k
			if k < rngTap {
				s.vec[t] = s.word(t)
			}
			x := s.word(f) + s.vec[t]
			s.vec[f] = x
			s.tap = 0
			if s.n == seedFeed {
				s.tap, s.feed = t, f
			}
			return uint64(x)
		}
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its sign bit cleared; its body is
// Uint64's.
func (s *Source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		if s.n < seedFeed {
			k := s.n
			s.n++
			f, t := seedFeed-1-k, rngLen-1-k
			if k < rngTap {
				s.vec[t] = s.word(t)
			}
			x := s.word(f) + s.vec[t]
			s.vec[f] = x
			s.tap = 0
			if s.n == seedFeed {
				s.tap, s.feed = t, f
			}
			return int64(uint64(x) & (1<<63 - 1))
		}
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return int64(uint64(x) & (1<<63 - 1))
}

// word returns seeded state word i.
func (s *Source) word(i int) int64 {
	a := s.x0 * uint64(lehmerPow[i]) % lehmerMod
	b := a * lehmerMul % lehmerMod
	c := b * lehmerMul % lehmerMod
	return int64(a<<40^b<<20^c) ^ rngCooked[i]
}

// SplitMix64 is one step of the SplitMix64 generator (Steele et al.,
// "Fast splittable pseudorandom number generators"): it adds the
// golden-ratio increment to x and returns the finalised sum. The
// finaliser is invertible and its output passes BigCrush, so chaining
// it over structured coordinates (seed, point, trial, node, frame)
// gives independent-looking seeds; a generator whose state advances by
// the increment per draw returns SplitMix64(state) before advancing.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
