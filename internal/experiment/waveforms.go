package experiment

import (
	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// maxSharedWaveforms bounds the waveforms CounterWaveforms shares. At 8
// samples per chip a counter frame's waveform is 10,272 samples, about
// 164 KB, so the shared set stays under 42 MB at any frame count.
const maxSharedWaveforms = 256

// CounterWaveforms returns the waveform source of a run whose trials
// send counter frames 0 … frames−1 (CounterFrame) from tx. The
// modulators draw no random numbers, so a frame's waveform depends on
// its index alone, whatever channel, operating point or calibration
// cell airs it. Frames below maxSharedWaveforms are modulated once,
// here, and every call for one returns the same read-only waveform;
// a frame at or above the bound is modulated afresh on each call. Every
// modulation reports to reg. The source is safe for concurrent use: the
// modulators keep no per-frame state.
func CounterWaveforms(tx chip.Model, samplesPerChip, frames int, reg *obs.Registry) (func(frame int) (dsp.IQ, error), error) {
	modulator, err := tx.Modulator(samplesPerChip, reg, nil)
	if err != nil {
		return nil, err
	}
	modulate := func(frame int) (dsp.IQ, error) {
		ppdu, err := ieee802154.NewPPDU(CounterFrame(frame))
		if err != nil {
			return nil, err
		}
		return modulator(ppdu)
	}
	shared := make([]dsp.IQ, min(max(frames, 0), maxSharedWaveforms))
	for n := range shared {
		if shared[n], err = modulate(n); err != nil {
			return nil, err
		}
	}
	return func(frame int) (dsp.IQ, error) {
		if frame >= 0 && frame < len(shared) {
			return shared[frame], nil
		}
		return modulate(frame)
	}, nil
}

// runWaveforms is the waveform source of a run on fidelity tier fid:
// the side's transmitter's counter waveforms on the IQ tier, nil on the
// calibrated tiers, which modulate nothing.
func runWaveforms(fid radio.Fidelity, model chip.Model, side Side, samplesPerChip, frames int, reg *obs.Registry) (func(int) (dsp.IQ, error), error) {
	if !iqTier(fid) {
		return nil, nil
	}
	tx, _ := side.Ends(model)
	return CounterWaveforms(tx, samplesPerChip, frames, reg)
}

// iqTier reports whether fid runs the DSP chain (zero means FidelityIQ).
func iqTier(fid radio.Fidelity) bool {
	return fid == 0 || fid == radio.FidelityIQ
}
