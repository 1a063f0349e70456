package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func tone(n int, cyclesPerSample float64) IQ {
	s := make(IQ, n)
	for i := range s {
		s[i] = cmplx.Exp(complex(0, 2*math.Pi*cyclesPerSample*float64(i)))
	}
	return s
}

func TestPowerOfUnitTone(t *testing.T) {
	s := tone(256, 0.1)
	if p := s.Power(); math.Abs(p-1) > 1e-12 {
		t.Errorf("unit tone power = %g, want 1", p)
	}
	var empty IQ
	if p := empty.Power(); p != 0 {
		t.Errorf("empty power = %g, want 0", p)
	}
}

func TestScale(t *testing.T) {
	s := tone(64, 0.05)
	s.Scale(2)
	if p := s.Power(); math.Abs(p-4) > 1e-12 {
		t.Errorf("scaled power = %g, want 4", p)
	}
}

func TestAddOffsetAndClipping(t *testing.T) {
	base := make(IQ, 10)
	burst := IQ{1, 1, 1}
	base.Add(burst, 8) // last sample clipped
	if base[8] != 1 || base[9] != 1 {
		t.Error("in-range samples not added")
	}
	base2 := make(IQ, 10)
	base2.Add(burst, -2) // first two samples clipped
	if base2[0] != 1 {
		t.Error("tail of early-offset burst not added")
	}
	if base2[1] != 0 {
		t.Error("out-of-range burst samples leaked")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := tone(8, 0.1)
	c := s.Clone()
	c[0] = 0
	if s[0] == 0 {
		t.Error("Clone aliases its input")
	}
}

func TestMixFrequencyShiftsTone(t *testing.T) {
	// A tone at f mixed by df must discriminate to f+df per sample.
	s := tone(512, 0.02)
	s.MixFrequency(0.03)
	incs := Discriminate(s)
	got := MeanFrequency(incs)
	want := 2 * math.Pi * 0.05
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mean phase increment = %g, want %g", got, want)
	}
}

// TestMixAddMatchesComposition: the fused MixAdd must produce, bit for
// bit, what the clone-mix-scale-add sequence it replaces produces,
// including the dropped out-of-range samples and the skipped identity
// mix and scale.
func TestMixAddMatchesComposition(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	src := make(IQ, 300)
	for i := range src {
		src[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
	}
	for _, c := range []struct {
		offset int
		df, g  float64
	}{
		{40, 0.013, 0.1}, {40, -0.021, 1}, {0, 0, 0.1}, {7, 0, 1}, {-25, 0.3, 0.1}, {150, 0.49, 1},
	} {
		noise := make(IQ, 400)
		for i := range noise {
			noise[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
		}
		burst := src.Clone()
		if c.df != 0 {
			burst.MixFrequency(c.df)
		}
		if c.g != 1 {
			burst.Scale(c.g)
		}
		want := noise.Clone().Add(burst, c.offset)
		got := noise.Clone().MixAdd(src, c.offset, c.df, c.g)
		for i := range got {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%+v: sample %d = %v, want %v", c, i, got[i], want[i])
			}
		}
	}
}

func TestRotatePhasePreservesDiscriminator(t *testing.T) {
	s := tone(128, 0.02)
	before := Discriminate(s.Clone())
	s.RotatePhase(1.234)
	after := Discriminate(s)
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-9 {
			t.Fatalf("phase rotation changed increment %d: %g vs %g", i, before[i], after[i])
		}
	}
}

func TestPad(t *testing.T) {
	s := IQ{1, 2}
	p, err := s.Pad(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 7 || p[0] != 0 || p[2] != 1 || p[3] != 2 || p[6] != 0 {
		t.Errorf("Pad = %v", p)
	}
	if _, err := s.Pad(-1, 0); err == nil {
		t.Error("expected error for negative padding")
	}
}

func TestEnvelopeDeviationOfTone(t *testing.T) {
	s := tone(256, 0.07)
	if d := s.EnvelopeDeviation(); d > 1e-12 {
		t.Errorf("tone envelope deviation = %g, want ~0", d)
	}
}

func TestGaussianPulseDisabledIsRect(t *testing.T) {
	pulse, err := GaussianPulse(0, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pulse) != 8 {
		t.Fatalf("rect pulse length = %d, want 8", len(pulse))
	}
	for i, v := range pulse {
		if v != 1 {
			t.Errorf("rect pulse[%d] = %g, want 1", i, v)
		}
	}
}

func TestGaussianPulseProperties(t *testing.T) {
	const sps = 8
	pulse, err := GaussianPulse(0.5, sps, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Integral normalised to sps.
	var sum float64
	for _, v := range pulse {
		sum += v
	}
	if math.Abs(sum-sps) > 1e-9 {
		t.Errorf("pulse integral = %g, want %d", sum, sps)
	}
	// Symmetric.
	for i := 0; i < len(pulse)/2; i++ {
		if math.Abs(pulse[i]-pulse[len(pulse)-1-i]) > 1e-9 {
			t.Fatalf("pulse not symmetric at %d", i)
		}
	}
	// Peak in the middle and below the rectangular amplitude spread over
	// more samples.
	mid := pulse[len(pulse)/2]
	for _, v := range pulse {
		if v > mid+1e-9 {
			t.Fatal("pulse peak is not central")
		}
	}
	if mid >= 1 {
		t.Errorf("Gaussian-filtered peak = %g, want < 1 (spread out)", mid)
	}
}

func TestGaussianPulseErrors(t *testing.T) {
	if _, err := GaussianPulse(0.5, 0, 2); err == nil {
		t.Error("expected error for sps=0")
	}
	if _, err := GaussianPulse(0.5, 8, 0); err == nil {
		t.Error("expected error for span=0")
	}
}

func TestHalfSinePulse(t *testing.T) {
	const sps = 8
	pulse, err := HalfSinePulse(sps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pulse) != 2*sps {
		t.Fatalf("half-sine length = %d, want %d", len(pulse), 2*sps)
	}
	if pulse[0] != 0 {
		t.Errorf("half-sine starts at %g, want 0", pulse[0])
	}
	if math.Abs(pulse[sps]-1) > 1e-12 {
		t.Errorf("half-sine midpoint = %g, want 1", pulse[sps])
	}
	if _, err := HalfSinePulse(0); err == nil {
		t.Error("expected error for sps=0")
	}
}

func TestDiscriminateTone(t *testing.T) {
	s := tone(100, 0.01)
	incs := Discriminate(s)
	if len(incs) != 99 {
		t.Fatalf("discriminator output length = %d, want 99", len(incs))
	}
	want := 2 * math.Pi * 0.01
	for i, v := range incs {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("increment[%d] = %g, want %g", i, v, want)
		}
	}
	if Discriminate(nil) != nil {
		t.Error("Discriminate(nil) should be nil")
	}
}

func TestIntegrateSymbolsAndSlice(t *testing.T) {
	incs := []float64{1, 1, -1, -1, 1, 1, 0.5}
	syms := IntegrateSymbols(incs, 0, 2)
	want := []float64{2, -2, 2}
	if len(syms) != len(want) {
		t.Fatalf("symbol count = %d, want %d", len(syms), len(want))
	}
	for i := range want {
		if math.Abs(syms[i]-want[i]) > 1e-12 {
			t.Errorf("symbol[%d] = %g, want %g", i, syms[i], want[i])
		}
	}
	bits := SliceBits(syms)
	if bits[0] != 1 || bits[1] != 0 || bits[2] != 1 {
		t.Errorf("SliceBits = %v, want [1 0 1]", bits)
	}
	if IntegrateSymbols(incs, 99, 2) != nil {
		t.Error("out-of-range offset should return nil")
	}
	if IntegrateSymbols(incs, 0, 0) != nil {
		t.Error("sps=0 should return nil")
	}
}

func TestUnwrapPhaseMonotoneTone(t *testing.T) {
	s := tone(200, 0.1)
	ph := UnwrapPhase(s)
	step := 2 * math.Pi * 0.1
	for i := 1; i < len(ph); i++ {
		if math.Abs(ph[i]-ph[i-1]-step) > 1e-9 {
			t.Fatalf("unwrapped step at %d = %g, want %g", i, ph[i]-ph[i-1], step)
		}
	}
	if UnwrapPhase(nil) != nil {
		t.Error("UnwrapPhase(nil) should be nil")
	}
}

func TestPhaseRMSEIgnoresConstantOffset(t *testing.T) {
	a := []float64{0, 1, 2, 3}
	b := []float64{5, 6, 7, 8}
	if r := PhaseRMSE(a, b); r > 1e-12 {
		t.Errorf("RMSE with constant offset = %g, want 0", r)
	}
	c := []float64{0, 1, 2, 4}
	if r := PhaseRMSE(a, c); r <= 0 {
		t.Errorf("RMSE of differing trajectories = %g, want > 0", r)
	}
	if r := PhaseRMSE(nil, nil); r != 0 {
		t.Errorf("RMSE of empty = %g, want 0", r)
	}
}

func TestAddAWGNReachesTargetSNR(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	s := tone(200000, 0.01)
	clean := s.Clone()
	if err := AddAWGN(s, 10, rnd); err != nil {
		t.Fatal(err)
	}
	var noisePower float64
	for i := range s {
		d := s[i] - clean[i]
		noisePower += real(d)*real(d) + imag(d)*imag(d)
	}
	noisePower /= float64(len(s))
	gotSNR := 10 * math.Log10(1/noisePower)
	if math.Abs(gotSNR-10) > 0.2 {
		t.Errorf("measured SNR = %g dB, want 10 dB", gotSNR)
	}
}

func TestAddAWGNNilRand(t *testing.T) {
	if err := AddAWGN(make(IQ, 4), 10, nil); err == nil {
		t.Error("expected error for nil rand")
	}
}

func TestAddAWGNSilentSignal(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	s := make(IQ, 16)
	if err := AddAWGN(s, 10, rnd); err != nil {
		t.Fatal(err)
	}
	if s.Power() != 0 {
		t.Error("AWGN added to an all-zero signal (undefined SNR)")
	}
}

func TestNoiseFloor(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	n, err := NoiseFloor(100000, 0.25, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if p := n.Power(); math.Abs(p-0.25) > 0.01 {
		t.Errorf("noise floor power = %g, want 0.25", p)
	}
	if _, err := NoiseFloor(-1, 1, rnd); err == nil {
		t.Error("expected error for negative count")
	}
	if _, err := NoiseFloor(1, 1, nil); err == nil {
		t.Error("expected error for nil rand")
	}
}

func TestBurstNoiseDutyCycle(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	s := make(IQ, 200000)
	for i := range s {
		s[i] = 1
	}
	if err := BurstNoise(s, 0.4, 400, 1.0, rnd); err != nil {
		t.Fatal(err)
	}
	hit := 0
	for _, v := range s {
		if v != 1 {
			hit++
		}
	}
	frac := float64(hit) / float64(len(s))
	if frac < 0.25 || frac > 0.55 {
		t.Errorf("burst coverage = %.2f, want ≈ 0.4", frac)
	}
}

func TestBurstNoiseNoOpCases(t *testing.T) {
	s := make(IQ, 16)
	rnd := rand.New(rand.NewSource(4))
	if err := BurstNoise(s, 0, 10, 1, rnd); err != nil {
		t.Fatal(err)
	}
	if err := BurstNoise(s, 0.5, 10, 0, rnd); err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if v != 0 {
			t.Fatal("no-op BurstNoise modified the signal")
		}
	}
	if err := BurstNoise(s, 0.5, 10, 1, nil); err == nil {
		t.Error("expected error for nil rand")
	}
}

func TestBitCorrelation(t *testing.T) {
	stream := []byte{1, 0, 1, 1, 0, 0, 1}
	pattern := []byte{1, 1, 0}
	if got := BitCorrelation(stream, pattern, 2); got != 3 {
		t.Errorf("correlation at 2 = %d, want 3", got)
	}
	if got := BitCorrelation(stream, pattern, 5); got != -1 {
		t.Errorf("out-of-range correlation = %d, want -1", got)
	}
	if got := BitCorrelation(stream, pattern, -1); got != -1 {
		t.Errorf("negative-offset correlation = %d, want -1", got)
	}
}

func TestFindPattern(t *testing.T) {
	stream := []byte{0, 0, 1, 0, 1, 1, 0, 1}
	pattern := []byte{1, 0, 1, 1}
	off, errs, ok := FindPattern(stream, pattern, 0)
	if !ok || off != 2 || errs != 0 {
		t.Errorf("FindPattern = (%d,%d,%v), want (2,0,true)", off, errs, ok)
	}

	// One corrupted bit still locks with maxErrors=1.
	stream[4] = 0
	off, errs, ok = FindPattern(stream, pattern, 1)
	if !ok || off != 2 || errs != 1 {
		t.Errorf("FindPattern tolerant = (%d,%d,%v), want (2,1,true)", off, errs, ok)
	}
	if _, _, ok := FindPattern(stream, pattern, 0); ok {
		t.Error("strict FindPattern should fail on a corrupted stream")
	}
	if _, _, ok := FindPattern([]byte{1}, pattern, 0); ok {
		t.Error("pattern longer than stream should not match")
	}
	if _, _, ok := FindPattern(stream, nil, 0); ok {
		t.Error("empty pattern should not match")
	}
}

func TestNormalizedCrossCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	scaled := []float64{2, 4, 6, 8}
	if c := NormalizedCrossCorrelation(a, scaled); math.Abs(c-1) > 1e-12 {
		t.Errorf("NCC of scaled copy = %g, want 1", c)
	}
	neg := []float64{-1, -2, -3, -4}
	if c := NormalizedCrossCorrelation(a, neg); math.Abs(c+1) > 1e-12 {
		t.Errorf("NCC of negated copy = %g, want -1", c)
	}
	if c := NormalizedCrossCorrelation(nil, a); c != 0 {
		t.Errorf("NCC with empty input = %g, want 0", c)
	}
	if c := NormalizedCrossCorrelation(a, []float64{0, 0, 0, 0}); c != 0 {
		t.Errorf("NCC with zero signal = %g, want 0", c)
	}
}

func TestNCCProperty(t *testing.T) {
	// |NCC| ≤ 1 for random vectors (Cauchy–Schwarz).
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		a := make([]float64, 32)
		b := make([]float64, 32)
		for i := range a {
			a[i] = rnd.NormFloat64()
			b[i] = rnd.NormFloat64()
		}
		c := NormalizedCrossCorrelation(a, b)
		return c >= -1-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
