// Package dsp is the signal-processing substrate for the simulated radios:
// complex-baseband sample buffers, pulse shapes (Gaussian, half-sine), FIR
// filtering, a phase discriminator, additive white Gaussian noise and
// correlation utilities.
//
// All signals are complex baseband at a configurable sample rate. The
// modulators in internal/ble and internal/ieee802154 produce IQ buffers and
// the radio medium in internal/radio perturbs them before they reach a
// demodulator, which mirrors how the physical experiment in the paper
// couples two radio front ends over the air.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IQ is a complex-baseband sample buffer.
type IQ []complex128

// Clone returns an independent copy of the buffer.
func (s IQ) Clone() IQ {
	out := make(IQ, len(s))
	copy(out, s)
	return out
}

// Power returns the mean squared magnitude of the buffer, or zero for an
// empty buffer.
func (s IQ) Power() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return sum / float64(len(s))
}

// PowerSegment returns the mean squared magnitude of the samples in
// [from, to), clamped to the buffer; an empty range returns zero. Link
// diagnostics use it to measure the decoded frame span and the
// noise-only guard regions separately.
func (s IQ) PowerSegment(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s) {
		to = len(s)
	}
	if from >= to {
		return 0
	}
	var sum float64
	for _, v := range s[from:to] {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return sum / float64(to-from)
}

// PowerSegment is the free-function form of IQ.PowerSegment.
func PowerSegment(s IQ, from, to int) float64 {
	return s.PowerSegment(from, to)
}

// Scale multiplies every sample by g in place and returns the buffer.
func (s IQ) Scale(g float64) IQ {
	for i := range s {
		s[i] *= complex(g, 0)
	}
	return s
}

// Add sums other into the buffer in place, starting at sample offset.
// Samples of other that fall outside the buffer are ignored, which models a
// partially overlapping interfering transmission.
func (s IQ) Add(other IQ, offset int) IQ {
	for i, v := range other {
		j := offset + i
		if j < 0 || j >= len(s) {
			continue
		}
		s[j] += v
	}
	return s
}

// MixFrequency applies a frequency offset of df (cycles per sample; i.e.
// frequency in Hz divided by the sample rate) in place. This models carrier
// frequency offset between two crystal oscillators.
func (s IQ) MixFrequency(df float64) IQ {
	osc := oscillator{step: 2 * math.Pi * df}
	for i := range s {
		s[i] *= osc.next()
	}
	return s
}

// MixAdd adds src into the buffer starting at sample offset, after
// shifting it by df cycles per sample and scaling it by g. It is the
// copy-free form of
//
//	s.Add(src.Clone().MixFrequency(df).Scale(g), offset)
//
// and produces the same samples bit for bit, except that df == 0 skips
// the mix and g == 1 skips the scale rather than multiplying by an exact
// 1 (which can flip the sign of a zero component). Samples of src that
// fall outside the buffer are dropped, as in Add.
func (s IQ) MixAdd(src IQ, offset int, df, g float64) IQ {
	osc := oscillator{step: 2 * math.Pi * df}
	for i, v := range src {
		if df != 0 {
			v *= osc.next()
		}
		if g != 1 {
			v *= complex(g, 0)
		}
		if j := offset + i; j >= 0 && j < len(s) {
			s[j] += v
		}
	}
	return s
}

// oscillator is the unit phasor recursion of MixFrequency: the phase
// advances by step per sample and wraps at π.
type oscillator struct{ phase, step float64 }

// next returns e^{jφ} for the current phase and advances it.
// cmplx.Exp(complex(0, φ)) computes complex(1·cos φ, 1·sin φ) with the
// same Sincos, so this is the same phasor without the math.Exp(0).
func (o *oscillator) next() complex128 {
	sn, cs := math.Sincos(o.phase)
	o.phase += o.step
	if o.phase > math.Pi {
		o.phase -= 2 * math.Pi
	}
	return complex(cs, sn)
}

// RotatePhase applies a constant phase rotation (radians) in place. A
// noncoherent receiver must work for any value.
func (s IQ) RotatePhase(theta float64) IQ {
	r := cmplx.Exp(complex(0, theta))
	for i := range s {
		s[i] *= r
	}
	return s
}

// Pad returns the buffer extended with before leading and after trailing
// zero samples.
func (s IQ) Pad(before, after int) (IQ, error) {
	if before < 0 || after < 0 {
		return nil, fmt.Errorf("dsp: negative padding (%d, %d)", before, after)
	}
	out := make(IQ, before+len(s)+after)
	copy(out[before:], s)
	return out, nil
}

// EnvelopeDeviation returns the maximum relative deviation of the signal
// envelope from its mean magnitude. Constant-envelope modulations (MSK,
// O-QPSK with half-sine shaping, GFSK) should return values near zero away
// from the buffer edges; edge samples can be trimmed by the caller.
func (s IQ) EnvelopeDeviation() float64 {
	if len(s) == 0 {
		return 0
	}
	var mean float64
	for _, v := range s {
		mean += cmplx.Abs(v)
	}
	mean /= float64(len(s))
	if mean == 0 {
		return 0
	}
	var worst float64
	for _, v := range s {
		d := math.Abs(cmplx.Abs(v)-mean) / mean
		if d > worst {
			worst = d
		}
	}
	return worst
}
