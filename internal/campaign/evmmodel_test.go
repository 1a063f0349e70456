package campaign

import (
	"math"
	"math/rand"
	"testing"

	"wazabee/internal/randsrc"
)

// TestEVMDrawMatchesSeededSource checks evmModel.draw against the
// per-frame rand.New(rand.NewSource(key)) it replaces, over both
// populations, framed and unframed draws, and SNRs either side of the
// knee.
func TestEVMDrawMatchesSeededSource(t *testing.T) {
	reference := func(seed int64, snrDB float64, seq uint64, diverted, framed bool) (float64, bool) {
		h := randsrc.SplitMix64(uint64(seed) ^ 0xca3afee1)
		h = randsrc.SplitMix64(h ^ seq)
		if diverted {
			h = randsrc.SplitMix64(h ^ 0x5eed)
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
