package stream

import (
	"math"
	"math/rand"
	"testing"

	"wazabee/internal/dsp"
)

// referenceSync is the one-shot decision the correlator must reproduce:
// IntegrateSymbols → SliceBits → FindPattern at every sampling phase,
// the qualifying candidates ranked by SoftScore with ties going to the
// lowest phase.
func referenceSync(incs []float64, pattern []byte, maxErrors, sps int) (Candidate, bool) {
	var best Candidate
	found := false
	for phase := 0; phase < sps; phase++ {
		sums := dsp.IntegrateSymbols(incs, phase, sps)
		bits := dsp.SliceBits(sums)
		pos, errs, ok := dsp.FindPattern(bits, pattern, maxErrors)
		if !ok {
			continue
		}
		score, ok := dsp.SoftScore(sums, pattern, pos)
		if !ok {
			continue
		}
		if !found || score > best.Score {
			best = Candidate{Phase: phase, Pos: pos, Errors: errs, Score: score}
			found = true
		}
	}
	return best, found
}

// FuzzCorrelatorMatchesFindPattern checks the packed 64-bit scan (and
// the byte-wise fallback for longer patterns) against the byte-wise
// reference chain. The fuzzer picks the random increments (through the
// seed), a pattern of 1 to 80 bits, the error budget, the samples per
// symbol and where a noisy copy of the pattern sits.
func FuzzCorrelatorMatchesFindPattern(f *testing.F) {
	f.Add(int64(1), uint8(31), 3, uint8(7), uint16(40))          // 32-bit access address, sps 8
	f.Add(int64(2), uint8(62), 6, uint8(7), uint16(90))          // 63-bit preamble window
	f.Add(int64(3), uint8(63), 2, uint8(3), uint16(10))          // exactly 64 bits
	f.Add(int64(4), uint8(70), 4, uint8(1), uint16(5))           // byte-wise fallback
	f.Add(int64(5), uint8(0), 0, uint8(0), uint16(0))            // 1 bit, sps 1
	f.Add(int64(6), uint8(15), -1, uint8(2), uint16(7))          // nothing qualifies
	f.Add(int64(7), uint8(31), math.MaxInt, uint8(4), uint16(3)) // budget wraps as in FindPattern
	f.Fuzz(func(t *testing.T, seed int64, patLen uint8, maxErrors int, spsByte uint8, at uint16) {
		sps := 1 + int(spsByte%16)
		rnd := rand.New(rand.NewSource(seed))
		pattern := make([]byte, 1+int(patLen)%80)
		for i := range pattern {
			pattern[i] = byte(rnd.Intn(2))
		}

		// Gaussian phase noise around a noisy copy of the pattern, with a
		// partial symbol window at the end.
		lead := int(at) % 512
		symbols := lead + len(pattern) + rnd.Intn(64)
		incs := make([]float64, symbols*sps+rnd.Intn(sps))
		sigma := rnd.Float64()
		for i := range incs {
			incs[i] = rnd.NormFloat64() * sigma
		}
		for i, b := range pattern {
			v := 0.5
			if b == 0 {
				v = -0.5
			}
			for j := 0; j < sps; j++ {
				incs[(lead+i)*sps+j] += v
			}
		}

		c := correlateIncs(incs, pattern, maxErrors, sps)
		defer c.Close()

		got, ok := c.Best()
		want, wantOK := referenceSync(incs, pattern, maxErrors, sps)
		if ok != wantOK {
			t.Fatalf("candidate found = %v, reference %v (%+v)", ok, wantOK, want)
		}
		if ok && (got.Phase != want.Phase || got.Pos != want.Pos || got.Errors != want.Errors ||
			math.Float64bits(got.Score) != math.Float64bits(want.Score)) {
			t.Fatalf("candidate %+v, reference %+v", got, want)
		}
		for phase := 0; phase < sps; phase++ {
			gotSums, wantSums := c.Sums(phase), dsp.IntegrateSymbols(incs, phase, sps)
			if len(gotSums) != len(wantSums) {
				t.Fatalf("phase %d: %d sums, reference %d", phase, len(gotSums), len(wantSums))
			}
			for i := range gotSums {
				if math.Float64bits(gotSums[i]) != math.Float64bits(wantSums[i]) {
					t.Fatalf("phase %d: sum %d = %v, reference %v", phase, i, gotSums[i], wantSums[i])
				}
			}
		}
	})
}
