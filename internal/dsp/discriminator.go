package dsp

import (
	"math"
	"math/cmplx"
)

// Discriminate converts a complex-baseband signal into instantaneous phase
// increments: out[i] = arg(s[i+1]·conj(s[i])), in radians per sample. This
// is the classic quadrature frequency discriminator every FSK receiver
// reduces to; the sign of the increment tells the rotation direction of the
// signal vector in the complex plane (Figure 1 of the paper).
//
// The output has len(s)-1 samples (zero-length input yields nil).
func Discriminate(s IQ) []float64 {
	if len(s) < 2 {
		return nil
	}
	return DiscriminateInto(make([]float64, 0, len(s)-1), s)
}

// DiscriminateInto appends the phase increments of s to dst and returns
// the extended slice, reusing dst's capacity. It is the allocation-free
// form of Discriminate for pooled buffers.
func DiscriminateInto(dst []float64, s IQ) []float64 {
	for i := 0; i+1 < len(s); i++ {
		dst = append(dst, cmplx.Phase(s[i+1]*cmplx.Conj(s[i])))
	}
	return dst
}

// IntegrateSymbols sums phase increments over consecutive windows of sps
// samples starting at offset, producing one accumulated phase change per
// symbol period. Incomplete trailing windows are dropped.
func IntegrateSymbols(increments []float64, offset, sps int) []float64 {
	if sps < 1 || offset < 0 || offset >= len(increments) {
		return nil
	}
	n := (len(increments) - offset) / sps
	return IntegrateSymbolsInto(make([]float64, 0, n), increments, offset, sps)
}

// IntegrateSymbolsInto is the appending, allocation-free form of
// IntegrateSymbols: it sums complete sps-sample windows of increments
// starting at offset and appends one value per window to dst.
func IntegrateSymbolsInto(dst []float64, increments []float64, offset, sps int) []float64 {
	if sps < 1 || offset < 0 || offset >= len(increments) {
		return dst
	}
	n := (len(increments) - offset) / sps
	for k := 0; k < n; k++ {
		var sum float64
		base := offset + k*sps
		for i := 0; i < sps; i++ {
			sum += increments[base+i]
		}
		dst = append(dst, sum)
	}
	return dst
}

// SliceBits converts accumulated per-symbol phase changes into hard bit
// decisions: positive rotation (counter-clockwise) decodes as 1, negative as
// 0, matching the FSK convention in the paper.
func SliceBits(phases []float64) []byte {
	return SliceBitsInto(make([]byte, 0, len(phases)), phases)
}

// SliceBitsInto is the appending, allocation-free form of SliceBits.
func SliceBitsInto(dst []byte, phases []float64) []byte {
	for _, p := range phases {
		if p > 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// MeanFrequency estimates the average phase increment per sample, used for
// carrier-frequency-offset estimation over a known constant-envelope
// preamble with balanced bit content.
func MeanFrequency(increments []float64) float64 {
	if len(increments) == 0 {
		return 0
	}
	var sum float64
	for _, v := range increments {
		sum += v
	}
	return sum / float64(len(increments))
}

// UnwrapPhase returns the cumulative phase trajectory of the signal,
// unwrapped so that successive samples never jump by more than π. Useful
// for waveform inspection (Figures 2 and 3).
func UnwrapPhase(s IQ) []float64 {
	if len(s) == 0 {
		return nil
	}
	out := make([]float64, len(s))
	out[0] = cmplx.Phase(s[0])
	for i := 1; i < len(s); i++ {
		d := cmplx.Phase(s[i] * cmplx.Conj(s[i-1]))
		out[i] = out[i-1] + d
	}
	return out
}

// PhaseRMSE returns the root-mean-square difference between two phase
// trajectories after removing the mean offset (absolute carrier phase is
// irrelevant to a noncoherent receiver). The trajectories must have equal
// length; shorter one truncates the comparison.
func PhaseRMSE(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var mean float64
	for i := 0; i < n; i++ {
		mean += a[i] - b[i]
	}
	mean /= float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i] - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}
