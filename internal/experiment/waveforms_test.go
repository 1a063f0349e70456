package experiment

import (
	"context"
	"math"
	"sync"
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

// modulations reads how many frames a run's transmitter modulated: the
// WazaBee TX primitive's frame counter and the modulate stage's
// observation count.
func modulations(reg *obs.Registry) (frames, stages uint64) {
	frames = reg.Counter("wazabee_frames_transmitted_total").Value()
	stages = reg.Histogram(obs.StageSecondsMetric, obs.DurationBuckets, "stage", "modulate").Count()
	return frames, stages
}

// TestTable3ModulatesEachFrameOnce: an IQ Transmission column modulates
// each counter frame once for all 16 channels, not once per trial.
func TestTable3ModulatesEachFrameOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FramesPerChannel = 4
	cfg.Obs = obs.NewRegistry()
	if _, err := RunContext(context.Background(), cfg, chip.NRF52832(), Transmission); err != nil {
		t.Fatal(err)
	}
	if frames, stages := modulations(cfg.Obs); frames != 4 || stages != 4 {
		t.Errorf("%d frames transmitted, %d modulate stages; want 4 and 4 (one per frame index)", frames, stages)
	}
}

// TestSweepModulatesEachFrameOnce: a PER sweep modulates each counter
// frame once for all its operating points.
func TestSweepModulatesEachFrameOnce(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.SNRs = []float64{4, 8, 12}
	cfg.FramesPerPoint = 8
	cfg.Obs = obs.NewRegistry()
	if _, err := RunSweepContext(context.Background(), cfg, chip.CC1352R1(), Transmission); err != nil {
		t.Fatal(err)
	}
	if frames, stages := modulations(cfg.Obs); frames != 8 || stages != 8 {
		t.Errorf("%d frames transmitted, %d modulate stages; want 8 and 8 (one per frame index)", frames, stages)
	}
}

// TestCounterWaveformsBound: a run shares at most maxSharedWaveforms
// waveforms, modulated once each when the source is built; a frame at
// or above the bound is modulated on every call. Every waveform equals
// a fresh Modulator call float64 bit for bit, read from four goroutines
// at once as a run's workers read them.
func TestCounterWaveformsBound(t *testing.T) {
	frames := []int{0, maxSharedWaveforms - 1, maxSharedWaveforms, maxSharedWaveforms + 1, 1000}
	const readers = 4
	for _, tx := range []chip.Model{chip.NRF52832(), chip.RZUSBStick()} {
		reg := obs.NewRegistry()
		stages := reg.Histogram(obs.StageSecondsMetric, obs.DurationBuckets, "stage", "modulate")
		waveforms, err := CounterWaveforms(tx, 8, maxSharedWaveforms+40, reg)
		if err != nil {
			t.Fatal(err)
		}
		if n := stages.Count(); n != maxSharedWaveforms {
			t.Errorf("%s: %d modulations building the source, want %d", tx.Name, n, maxSharedWaveforms)
		}

		got := make([][]dsp.IQ, readers)
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, frame := range frames {
					sig, err := waveforms(frame)
					if err != nil {
						t.Error(err)
						return
					}
					got[r] = append(got[r], sig)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Three frames at or above the bound, each modulated per read.
		if n := stages.Count(); n != maxSharedWaveforms+3*readers {
			t.Errorf("%s: %d modulations after the reads, want %d", tx.Name, n, maxSharedWaveforms+3*readers)
		}

		fresh, err := tx.Modulator(8, obs.NewRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, frame := range frames {
			ppdu, err := ieee802154.NewPPDU(CounterFrame(frame))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh(ppdu)
			if err != nil {
				t.Fatal(err)
			}
			if shared := &got[0][i][0] == &got[1][i][0]; shared != (frame < maxSharedWaveforms) {
				t.Errorf("%s frame %d: two reads share one waveform = %v", tx.Name, frame, shared)
			}
			for r := range got {
				sig := got[r][i]
				if len(sig) != len(want) {
					t.Fatalf("%s frame %d: %d samples, a fresh modulation has %d", tx.Name, frame, len(sig), len(want))
				}
				for k := range sig {
					if math.Float64bits(real(sig[k])) != math.Float64bits(real(want[k])) ||
						math.Float64bits(imag(sig[k])) != math.Float64bits(imag(want[k])) {
						t.Fatalf("%s frame %d: sample %d = %v, a fresh modulation gives %v", tx.Name, frame, k, sig[k], want[k])
					}
				}
			}
		}
	}
}
