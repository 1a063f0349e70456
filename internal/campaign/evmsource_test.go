package campaign

import (
	"math"
	"math/rand"
	"testing"
)

// evmOp is one draw through a *rand.Rand; every op returns the drawn
// value's bits so float results compare exactly.
type evmOp func(r *rand.Rand) uint64

var evmOps = []evmOp{
	func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
	func(r *rand.Rand) uint64 { return r.Uint64() },
}

// checkEVMSource re-keys got to seed and compares its draws with a fresh
// rand.New(rand.NewSource(seed)), op by op (ops index evmOps).
func checkEVMSource(t *testing.T, got *rand.Rand, seed int64, ops []int) {
	t.Helper()
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		if g, w := evmOps[op](got), evmOps[op](want); g != w {
			t.Fatalf("seed %d: draw %d (op %d) = %#x, math/rand gives %#x", seed, i, op, g, w)
		}
	}
}

// TestEVMSourceMatchesMathRand checks the lazy source against
// rand.NewSource bit for bit: inside the window, across the fallback to
// the real generator, and over the seed normalisation's edge cases. One
// source is re-keyed throughout, as evmModel uses it, so a short draw
// followed by a re-key and a long draw after an earlier fallback are both
// covered.
func TestEVMSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lehmerZero, -lehmerZero,
		lehmerMod - 1, lehmerMod + 1, 1 << 31, -(1 << 31),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for _, k := range []int64{1, 2, 3, 1000, math.MaxInt64 / lehmerMod} {
		seeds = append(seeds, k*lehmerMod, -k*lehmerMod)
	}
	pick := rand.New(rand.NewSource(20240601))
	for range 10000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}

	got := rand.New(new(evmSource))
	long := 2*evmWindow + 5 // past the window, so the fallback runs
	for i, seed := range seeds {
		// Rotate through the framed draw, mixed sequences past the
		// window (NormFloat64/Float64 only, then every op) and a single
		// draw that re-keys well inside it.
		var ops []int
		switch i % 4 {
		case 0:
			ops = []int{0, 1}
		case 1, 2:
			kinds := 2 * (i % 4) // 2 or 4 ops to choose from
			for range long {
				ops = append(ops, pick.Intn(kinds))
			}
		case 3:
			ops = []int{pick.Intn(2)}
		}
		checkEVMSource(t, got, seed, ops)
	}
}

func FuzzEVMSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1})
	f.Add(int64(lehmerZero), []byte{0, 0, 0, 0, 0, 1, 2, 3, 0, 1})
	f.Add(int64(math.MinInt64), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add(int64(-lehmerMod), []byte{1, 4, 0, 0, 0, 0, 0, 0, 4, 2})
	got := rand.New(new(evmSource))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		// Each byte picks an op; len(evmOps) re-keys to a derived seed,
		// which exercises re-seeding after a fallback. Every re-key
		// builds a reference source, so long inputs only slow the fuzzer.
		if len(ops) > 64 {
			ops = ops[:64]
		}
		var run []int
		for _, b := range ops {
			op := int(b) % (len(evmOps) + 1)
			if op == len(evmOps) {
				checkEVMSource(t, got, seed, run)
				seed, run = seed*6364136223846793005+1, run[:0]
				continue
			}
			run = append(run, op)
		}
		checkEVMSource(t, got, seed, run)
	})
}

// TestEVMDrawMatchesSeededSource checks evmModel.draw against the
// per-frame rand.New(rand.NewSource(key)) it replaces, over both
// populations, framed and unframed draws, and SNRs either side of the
// knee.
func TestEVMDrawMatchesSeededSource(t *testing.T) {
	reference := func(seed int64, snrDB float64, seq uint64, diverted, framed bool) (float64, bool) {
		h := splitmix64(uint64(seed) ^ 0xca3afee1)
		h = splitmix64(h ^ seq)
		if diverted {
			h = splitmix64(h ^ 0x5eed)
		}
		rng := rand.New(rand.NewSource(int64(h)))
		mean, sigma := nativeEVMMean, nativeEVMSigma
		if diverted {
			mean, sigma = divertedEVMMean, divertedEVMSigma
		}
		if snrDB < evmSNRKnee {
			widen := (evmSNRKnee - snrDB) * evmLowSNRWiden
			sigma += widen
			if !diverted {
				mean += widen
			}
		}
		evm := mean + sigma*rng.NormFloat64()
		if evm < 0 {
			evm = 0
		}
		return evm, framed && rng.Float64() < framingDetectProb
	}
	for _, seed := range []int64{1, 42, -7} {
		for _, snr := range []float64{-20, 5, 12, 30} {
			m := newEVMModel(seed, snr)
			for seq := uint64(0); seq < 2000; seq++ {
				diverted, framed := seq%3 == 0, seq%2 == 0
				evm, seen := m.draw(seq, diverted, framed)
				wantEVM, wantSeen := reference(seed, snr, seq, diverted, framed)
				if math.Float64bits(evm) != math.Float64bits(wantEVM) || seen != wantSeen {
					t.Fatalf("seed %d snr %g seq %d: draw = (%v, %v), want (%v, %v)",
						seed, snr, seq, evm, seen, wantEVM, wantSeen)
				}
			}
		}
	}
}

// TestEVMDrawAllocs checks that judging a frame's features costs no
// allocation once the model exists.
func TestEVMDrawAllocs(t *testing.T) {
	m := newEVMModel(42, 5)
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		m.draw(seq, seq%2 == 0, seq%4 == 0)
		seq++
	})
	if allocs != 0 {
		t.Errorf("evmModel.draw allocates %v times per frame, want 0", allocs)
	}
}
