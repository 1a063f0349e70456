package campaign

import "math/rand"

// evmSource is a bit-exact replica of the math/rand source that
// rand.NewSource(seed) returns, cheap to re-seed once per judged frame.
//
// rand.NewSource seeds a 607-word additive lagged Fibonacci register
// (D. P. Mitchell and J. A. Reeds) from the Lehmer sequence
// x[n+1] = 48271·x[n] mod (2³¹−1), started at the normalised seed:
// state word i is x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i],
// and for k < 273 the k-th output after seeding is
// vec[333−k] + vec[606−k]. Since x[n] = x[0]·48271ⁿ mod (2³¹−1), one of
// the first evmWindow outputs costs six modular multiplications, two of
// them by precomputed powers, where a real seeding runs 1,841 Lehmer
// steps into a 4.9 KB state. Past the window the source materialises
// the real generator, seeded identically, and skips the outputs the
// window already produced. The math/rand stream is frozen by the Go 1
// compatibility promise, so the replica cannot drift.
//
// A framed draw takes two outputs (NormFloat64 then Float64) unless the
// ziggurat rejects, so the window is almost never exceeded.
type evmSource struct {
	seed int64  // as given to Seed, for the fallback
	x0   uint64 // normalised Lehmer start value
	n    int    // outputs produced since Seed
	// full is the real generator past the window: allocated on the first
	// fallback, re-seeded on later ones.
	full rand.Source64
}

const (
	// evmWindow is how many outputs after a seed the replica computes
	// directly.
	evmWindow = 4

	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerZero = 89482311 // math/rand's substitute for a zero seed

	// The feed and tap indices of the first output after seeding
	// (rngLen − rngTap − 1 and rngLen − 1 in math/rand).
	firstFeed = 333
	firstTap  = 606
)

// evmCooked holds rngCooked[firstFeed−k] and rngCooked[firstTap−k] for
// the k-th output: the state words' fixed XOR masks, copied from the Go
// toolchain's src/math/rand/rng.go (Copyright 2009 The Go Authors,
// BSD-style license).
var evmCooked = [evmWindow][2]int64{
	{-4633371852008891965, 4152330101494654406},
	{4287360518296753003, 9103922860780351547},
	{-1072987336855386047, 8382142935188824023},
	{220828013409515943, -2171292963361310674},
}

// evmPow[k] holds 48271^(21+3i) mod (2³¹−1) for the state words i of
// the k-th output, feed then tap: the multiplier taking x[0] to the
// first Lehmer term of that word.
var evmPow = func() (p [evmWindow][2]uint64) {
	for k := range p {
		p[k][0] = lehmerPow(21 + 3*(firstFeed-k))
		p[k][1] = lehmerPow(21 + 3*(firstTap-k))
	}
	return p
}()

// lehmerPow returns 48271ⁿ mod (2³¹−1).
func lehmerPow(n int) uint64 {
	r, b := uint64(1), uint64(lehmerMul)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % lehmerMod
		}
		b = b * b % lehmerMod
	}
	return r
}

// Seed re-keys the source, normalising the seed as math/rand does.
func (s *evmSource) Seed(seed int64) {
	x := seed % lehmerMod
	if x < 0 {
		x += lehmerMod
	}
	if x == 0 {
		x = lehmerZero
	}
	s.seed, s.x0, s.n = seed, uint64(x), 0
}

// Uint64 returns the next output of rand.NewSource(seed).
func (s *evmSource) Uint64() uint64 {
	k := s.n
	s.n++
	if k < evmWindow {
		return uint64(s.word(evmPow[k][0], evmCooked[k][0]) + s.word(evmPow[k][1], evmCooked[k][1]))
	}
	if k == evmWindow {
		if s.full == nil {
			s.full = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.full.Seed(s.seed)
		}
		for range evmWindow {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 returns the next output with its sign bit cleared, as
// rand.NewSource(seed).Int63 does.
func (s *evmSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// word returns the seeded state word whose first Lehmer term is
// x[0]·pow, XORed with its cooked mask.
func (s *evmSource) word(pow uint64, cooked int64) int64 {
	a := s.x0 * pow % lehmerMod
	b := a * lehmerMul % lehmerMod
	c := b * lehmerMul % lehmerMod
	return int64(a<<40^b<<20^c) ^ cooked
}
