package ble

import (
	"errors"
	"fmt"
	"math"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
	"wazabee/internal/dsp/stream"
)

// Mode selects the physical-layer variant of a BLE-family radio.
type Mode int

const (
	// LE1M is the original 1 Mbit/s BLE PHY.
	LE1M Mode = iota + 1
	// LE2M is the 2 Mbit/s PHY introduced in Bluetooth 5, the one
	// WazaBee requires (Ts(MSK) = Tb(OQPSK) = 0.5 µs).
	LE2M
	// ESB2M is Nordic's proprietary Enhanced ShockBurst at 2 Mbit/s,
	// the fallback used on the nRF51822 tracker of scenario B. Its GFSK
	// parameters match LE 2M closely enough for the attack; the chip
	// model degrades its receive quality.
	ESB2M
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case LE1M:
		return "LE 1M"
	case LE2M:
		return "LE 2M"
	case ESB2M:
		return "ESB 2M"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// SymbolRate returns the PHY symbol rate in symbols per second.
func (m Mode) SymbolRate() (int, error) {
	switch m {
	case LE1M:
		return 1_000_000, nil
	case LE2M, ESB2M:
		return 2_000_000, nil
	default:
		return 0, fmt.Errorf("ble: invalid mode %d", int(m))
	}
}

// PreambleLength returns the preamble length in bytes for the mode.
func (m Mode) PreambleLength() int {
	if m == LE2M {
		return 2
	}
	return 1
}

// ErrNoAccessAddress is returned when a capture does not contain the
// configured Access Address pattern.
var ErrNoAccessAddress = errors.New("ble: access address not found")

// PHY is a GFSK modem: the modulator and frequency-discriminator
// demodulator of a BLE radio front end.
type PHY struct {
	// Mode selects LE 1M, LE 2M or ESB 2M.
	Mode Mode
	// SamplesPerSymbol is the baseband oversampling factor.
	SamplesPerSymbol int
	// ModulationIndex is the GFSK modulation index; the BLE
	// specification requires a value between 0.45 and 0.55 and the
	// WazaBee analysis assumes the nominal 0.5.
	ModulationIndex float64
	// BT is the bandwidth-time product of the Gaussian filter (0.5 for
	// BLE). Zero disables the filter, degenerating to plain 2-FSK/MSK.
	BT float64

	pulse []float64
}

// NewPHY builds a GFSK modem with the given oversampling, nominal
// modulation index 0.5 and the BLE Gaussian filter (BT = 0.5).
func NewPHY(mode Mode, samplesPerSymbol int) (*PHY, error) {
	return NewPHYWithShaping(mode, samplesPerSymbol, 0.5, 0.5)
}

// NewPHYWithShaping builds a GFSK modem with explicit modulation index and
// Gaussian BT product (bt <= 0 disables the filter). Used by the ablation
// benchmarks that sweep the BLE tolerance band.
func NewPHYWithShaping(mode Mode, samplesPerSymbol int, modIndex, bt float64) (*PHY, error) {
	if _, err := mode.SymbolRate(); err != nil {
		return nil, err
	}
	if samplesPerSymbol < 2 {
		return nil, fmt.Errorf("ble: samples per symbol %d < 2", samplesPerSymbol)
	}
	if modIndex <= 0 || modIndex > 1 {
		return nil, fmt.Errorf("ble: modulation index %g out of (0,1]", modIndex)
	}
	pulse, err := dsp.GaussianPulse(bt, samplesPerSymbol, 2)
	if err != nil {
		return nil, err
	}
	return &PHY{
		Mode:             mode,
		SamplesPerSymbol: samplesPerSymbol,
		ModulationIndex:  modIndex,
		BT:               bt,
		pulse:            pulse,
	}, nil
}

// ModulateBits produces the GFSK complex-baseband waveform of an on-air
// bit sequence: NRZ mapping, frequency-pulse shaping (Gaussian filtered
// rectangle) and phase integration. Each bit advances the phase by
// ±π·ModulationIndex; with the nominal index 0.5 that is the ±π/2 per
// symbol of MSK. The frequency-trace scratch is borrowed from the shared
// buffer pool, so a warmed-up transmit path allocates only the waveform.
func (p *PHY) ModulateBits(bits bitstream.Bits) (dsp.IQ, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("ble: empty bit stream")
	}
	sps := p.SamplesPerSymbol
	// Frequency trace: superpose one shaped pulse per symbol.
	n := len(bits)*sps + len(p.pulse) - sps
	dst := make(dsp.IQ, 0, n+1)
	pool := stream.Shared()
	freq := pool.F64(n)[:n]
	for i := range freq {
		freq[i] = 0
	}
	gain := math.Pi * p.ModulationIndex / float64(sps)
	for k, b := range bits {
		a := gain
		if b == 0 {
			a = -gain
		}
		base := k * sps
		for j, pv := range p.pulse {
			freq[base+j] += a * pv
		}
	}
	// Integrate to phase and emit the constant-envelope waveform. One
	// trailing sample carries the final accumulated phase so that the
	// last symbol keeps all of its phase increments. Sincos runs the
	// same argument reduction and polynomials as Sin and Cos, so each
	// sample equals complex(math.Cos(phase), math.Sin(phase)).
	phase := 0.0
	for _, f := range freq {
		sn, cs := math.Sincos(phase)
		dst = append(dst, complex(cs, sn))
		phase += f
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
	}
	sn, cs := math.Sincos(phase)
	dst = append(dst, complex(cs, sn))
	pool.PutF64(freq)
	return dst, nil
}

// Capture is a demodulated frame-aligned bit stream.
type Capture struct {
	// Bits is the hard-decision bit stream beginning at the first bit
	// of the matched pattern and running to the end of the capture.
	Bits bitstream.Bits
	// PatternErrors is the number of mismatched bits inside the matched
	// pattern window.
	PatternErrors int
	// PatternStart is the transition index of the matched pattern within
	// the capture at the recovered sampling phase; the first sample of
	// the frame sits at SampleOffset + PatternStart·SamplesPerSymbol.
	PatternStart int
	// SampleOffset is the recovered symbol-timing phase.
	SampleOffset int
	// SyncScore is the normalized soft correlation of the matched
	// pattern: 1.0 for a noiseless, perfectly timed match.
	SyncScore float64
	// CFOBias is the estimated per-symbol phase bias from carrier
	// frequency offset, already removed from Bits decisions.
	CFOBias float64
}

// DemodulateFrame searches a capture for the given bit pattern (an Access
// Address, or the WazaBee MSK preamble) with at most maxErrors mismatches
// and returns the CFO-corrected bit stream starting at the pattern. This
// mirrors how a BLE radio correlates on its configured Access Address
// before delivering payload bits.
func (p *PHY) DemodulateFrame(sig dsp.IQ, pattern bitstream.Bits, maxErrors int) (*Capture, error) {
	sps := p.SamplesPerSymbol
	if len(pattern) == 0 {
		return nil, fmt.Errorf("ble: empty access pattern")
	}
	if len(sig) < (len(pattern)+2)*sps {
		return nil, ErrNoAccessAddress
	}

	// Synchronisation: hard-correlate at every sampling phase (the
	// address correlator's error budget), then rank the qualifying
	// candidates by their soft correlation. Hard matching alone can
	// false-lock on payload coincidences at a wrongly timed phase, and
	// soft scores alone drift at wrong phases — the combination keeps
	// only the phase with a fully open eye.
	corr := stream.Correlate(stream.Shared(), sig, pattern, maxErrors, sps)
	defer corr.Close()
	best, ok := corr.Best()
	if !ok {
		return nil, ErrNoAccessAddress
	}
	bestPos := best.Pos
	sums := corr.Sums(best.Phase)

	// Estimate the CFO bias over the pattern window and re-slice.
	nominal := math.Pi * p.ModulationIndex
	var bias float64
	for i, want := range pattern {
		expected := nominal
		if want == 0 {
			expected = -expected
		}
		bias += sums[bestPos+i] - expected
	}
	bias /= float64(len(pattern))

	bits := make(bitstream.Bits, len(sums)-bestPos)
	for i := range bits {
		if sums[bestPos+i]-bias > 0 {
			bits[i] = 1
		}
	}
	return &Capture{
		Bits:          bits,
		PatternErrors: best.Errors,
		PatternStart:  bestPos,
		SampleOffset:  best.Phase,
		SyncScore:     best.Score / (float64(len(pattern)) * nominal),
		CFOBias:       bias,
	}, nil
}

// DemodulateRaw slices the whole capture into bits at the given sample
// phase with no pattern search, for diagnostics and waveform tooling.
func (p *PHY) DemodulateRaw(sig dsp.IQ, phase int) bitstream.Bits {
	incs := dsp.Discriminate(sig)
	sums := dsp.IntegrateSymbols(incs, phase, p.SamplesPerSymbol)
	return dsp.SliceBits(sums)
}
