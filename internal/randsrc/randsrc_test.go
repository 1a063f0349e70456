package randsrc

import (
	"math"
	"math/rand"
	"testing"
)

// countedSource counts the outputs a reference source has produced.
type countedSource struct {
	rand.Source64
	n int
}

func (c *countedSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countedSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// op is one draw through a *rand.Rand; every op returns the drawn
// value's bits so float results compare exactly.
type op func(r *rand.Rand) uint64

var ops = []op{
	func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
	func(r *rand.Rand) uint64 { return r.Uint64() },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
	func(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<62 + 1)) },
	func(r *rand.Rand) uint64 {
		var h uint64
		for _, v := range r.Perm(5) {
			h = h*5 + uint64(v)
		}
		return h
	},
}

// longRun is how many source outputs a full check draws: three passes
// over the register, so every seeded word is read as feed and as tap and
// the step wraps twice.
const longRun = 3 * rngLen

// check re-keys got to seed and compares its draws with a fresh
// rand.New(rand.NewSource(seed)). It applies ops[pick(i)] for draw i
// until the reference has produced longRun source outputs.
func check(t *testing.T, got *rand.Rand, seed int64, pick func(i int) int) {
	t.Helper()
	got.Seed(seed)
	ref := &countedSource{Source64: rand.NewSource(seed).(rand.Source64)}
	want := rand.New(ref)
	for i := 0; ref.n < longRun; i++ {
		o := pick(i)
		if g, w := ops[o](got), ops[o](want); g != w {
			t.Fatalf("seed %d: draw %d (op %d, output %d) = %#x, math/rand gives %#x", seed, i, o, ref.n, g, w)
		}
	}
}

// edgeSeeds are the seed normalisation's edge cases: zero and its
// substitute, multiples of 2³¹−1 either side of zero, and the int64
// extremes.
func edgeSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, lehmerZero, -lehmerZero,
		lehmerMod - 1, lehmerMod + 1, 1 << 31, -(1 << 31),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for _, k := range []int64{1, 2, 3, 1000, math.MaxInt64 / lehmerMod} {
		seeds = append(seeds, k*lehmerMod, -k*lehmerMod)
	}
	return seeds
}

// TestSourceMatchesMathRand checks Source against rand.NewSource bit
// for bit over the seed edges and 10k random seeds, with at least three
// register lengths of mixed draws per seed. One Source is re-keyed
// throughout, so every seed but the first starts over a stale register.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := edgeSeeds()
	pick := rand.New(rand.NewSource(20240601))
	for range 10000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	got := rand.New(New(0))
	for _, seed := range seeds {
		check(t, got, seed, func(int) int { return pick.Intn(len(ops)) })
	}
}

// TestSourceReseedMidStream re-seeds one Source after k outputs, at
// each boundary of the seeded phase, and checks the new stream from its
// first output through three register lengths. The k outputs alternate
// between Uint64 and Int63, whose bodies are written out separately.
func TestSourceReseedMidStream(t *testing.T) {
	pick := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, rngTap - 1, rngTap, seedFeed - 1, seedFeed, rngLen - 1, rngLen, 1000} {
		for _, seed := range edgeSeeds() {
			src := New(seed ^ 0x5eed)
			for i := range k {
				if i%2 == 0 {
					src.Uint64()
				} else {
					src.Int63()
				}
			}
			check(t, rand.New(src), seed, func(int) int { return pick.Intn(len(ops)) })
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte{0, 1})
	f.Add(int64(lehmerZero), uint16(rngTap), []byte{0, 0, 0, 0, 0, 1, 2, 3, 0, 1})
	f.Add(int64(math.MinInt64), uint16(seedFeed), []byte{3})
	f.Add(int64(-lehmerMod), uint16(rngLen), []byte{1, 6, 4, 5, 6, 0, 2})
	got := rand.New(New(0))
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, pattern []byte) {
		// Draw skip outputs from a derived seed, so the re-seed under
		// test lands anywhere in the previous stream, then cycle
		// through the ops the pattern bytes pick.
		got.Seed(seed ^ 0x5eed)
		for range int(skip) % longRun {
			got.Uint64()
		}
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		check(t, got, seed, func(i int) int { return int(pattern[i%len(pattern)]) % len(ops) })
	})
}

var sink uint64

// BenchmarkSeed40 times a seed plus 40 draws, a mesh node's typical
// stream, against math/rand's own source.
func BenchmarkSeed40(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source64
	}{
		{"randsrc", New(1)},
		{"mathrand", rand.NewSource(1).(rand.Source64)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.src.Seed(int64(i))
				for range 40 {
					sink += c.src.Uint64()
				}
			}
		})
	}
}

// BenchmarkNormFloat64 times steady-state normal draws through
// rand.Rand, as radio.Medium makes them for a noise floor.
func BenchmarkNormFloat64(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"randsrc", New(1)},
		{"mathrand", rand.NewSource(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			for range 2 * rngLen {
				r.Uint64()
			}
			var x float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x += r.NormFloat64()
			}
			sink += math.Float64bits(x)
		})
	}
}

// TestSplitMix64 checks the first outputs of the reference SplitMix64
// generator seeded with 0 (state advanced by the increment per draw).
func TestSplitMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	var state uint64
	for i, w := range want {
		if got := SplitMix64(state); got != w {
			t.Errorf("output %d = %#016x, want %#016x", i, got, w)
		}
		state += 0x9e3779b97f4a7c15
	}
}
