package experiment

import (
	"context"
	"fmt"
	"strconv"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// SweepMetric is the per-operating-point frame classification counter
// family of a PER sweep: labels chip, side, snr_db and class
// (valid | corrupted | lost).
const SweepMetric = "wazabee_sweep_frames_total"

// sweepCounter returns the classification counter of one sweep point.
func sweepCounter(reg *obs.Registry, model chip.Model, side Side, snrDB float64, class string) *obs.Counter {
	return reg.Counter(SweepMetric,
		"chip", model.Name,
		"side", side.String(),
		"snr_db", strconv.FormatFloat(snrDB, 'g', -1, 64),
		"class", class)
}

// sweepClasses is the outcome class set of a sweep trial.
var sweepClasses = []string{"valid", "corrupted", "lost"}

// sweepPointKey is the runner point key of one operating point; the
// 'g'/-1 format round-trips float64 exactly, so distinct SNRs always get
// distinct keys (and distinct trial seed streams).
func sweepPointKey(snrDB float64) string {
	return "snr" + strconv.FormatFloat(snrDB, 'g', -1, 64)
}

// SweepPoint is one operating point of a packet-error-rate sweep.
type SweepPoint struct {
	SNRdB float64
	// Frames is the number of frames the point measured (FramesPerPoint,
	// unless adaptive stopping ended the point early).
	Frames int
	// PER is the packet error rate (anything but a valid frame counts
	// as an error).
	PER float64
	// PERLo and PERHi bound PER with a 95% Wilson score interval.
	PERLo float64
	PERHi float64
	// CorruptedRate and LossRate split the errors by class.
	CorruptedRate float64
	LossRate      float64
}

// SweepConfig parameterises a PER-versus-SNR sweep, an extension beyond
// the paper's single operating point: it locates the sensitivity knee of
// each primitive and quantifies the Gaussian-approximation penalty of
// the transmission side.
type SweepConfig struct {
	// SNRs lists the operating points in dB.
	SNRs []float64
	// FramesPerPoint is the number of frames per operating point.
	FramesPerPoint int
	// SamplesPerChip is the oversampling factor.
	SamplesPerChip int
	// Workers bounds the Monte-Carlo worker pool; 0 means
	// runtime.GOMAXPROCS and a negative count is an error. Results do
	// not depend on the value.
	Workers int
	// Checkpoint, when non-empty, persists completed trial shards to
	// this path for cancellation/resume.
	Checkpoint string
	// CIHalfWidth, when non-zero, stops each operating point once the 95%
	// Wilson half-width of its PER reaches this target, instead of
	// always spending FramesPerPoint frames. A negative, NaN or infinite
	// target is an error.
	CIHalfWidth float64
	// Seed drives all randomness: every frame's noise derives from
	// (Seed, SNR point, frame index) alone, so a point's result does not
	// depend on which other points the sweep contains or on their order.
	Seed int64
	// Channel is the Zigbee channel to run on.
	Channel int
	// Obs, when non-nil, receives the sweep's telemetry (per-point
	// classification counters plus pipeline metrics), merged in when the
	// sweep completes. Nil merges into the process default registry.
	Obs *obs.Registry
	// Fidelity selects the frame-delivery tier (zero means FidelityIQ);
	// see Config.Fidelity.
	Fidelity radio.Fidelity
}

// DefaultSweepConfig covers the interesting 0–14 dB region.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		SNRs:           []float64{0, 2, 4, 5, 6, 7, 8, 10, 12, 14},
		FramesPerPoint: 50,
		SamplesPerChip: 8,
		Seed:           1,
		Channel:        zigbee.DefaultChannel,
	}
}

// RunSweepContext measures PER versus SNR for one chip model and side
// over a clean channel (no WiFi, no CFO — pure sensitivity) on the
// sharded Monte-Carlo runner. Each (SNR, frame) pair runs on its own
// freshly seeded medium, so a point's PER is a property of the point — it
// cannot shift when the SNR list is reordered, extended, or split across
// workers. The per-point tallies live as counters on the run's registry;
// the returned points carry 95% Wilson intervals on PER.
func RunSweepContext(ctx context.Context, cfg SweepConfig, model chip.Model, side Side) ([]SweepPoint, error) {
	if len(cfg.SNRs) == 0 || cfg.FramesPerPoint < 1 {
		return nil, fmt.Errorf("experiment: empty sweep configuration")
	}
	if err := checkSide(model, side, cfg.SamplesPerChip); err != nil {
		return nil, err
	}
	freq, err := ieee802154.ChannelFrequencyMHz(cfg.Channel)
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	waveforms, err := runWaveforms(cfg.Fidelity, model, side, cfg.SamplesPerChip, cfg.FramesPerPoint, reg)
	if err != nil {
		return nil, err
	}
	points := make([]runner.Point, len(cfg.SNRs))
	snrOf := make(map[string]float64, len(cfg.SNRs))
	for i, snr := range cfg.SNRs {
		key := sweepPointKey(snr)
		points[i] = runner.Point{Key: key, Trials: cfg.FramesPerPoint}
		snrOf[key] = snr
	}
	spec := runner.Spec{
		Name:       "persweep/" + model.Name + "/" + side.String(),
		Seed:       cfg.Seed,
		Points:     points,
		Workers:    cfg.Workers,
		Classes:    sweepClasses,
		Checkpoint: cfg.Checkpoint,
		Obs:        reg,
	}
	if cfg.CIHalfWidth != 0 {
		// Wilson intervals of p and 1-p mirror each other with equal
		// width, so stopping on the valid rate's half-width is exactly
		// stopping on the PER half-width.
		spec.Stop = &runner.Stop{Class: "valid", HalfWidth: cfg.CIHalfWidth}
	}

	res, err := runner.Run(ctx, spec, func(ctx context.Context, seed int64, point runner.Point, frame int) (runner.Outcome, error) {
		class, err := sweepTrial(cfg, reg, model, side, waveforms, freq, snrOf[point.Key], seed, frame)
		if err != nil {
			return runner.Outcome{}, err
		}
		return runner.Outcome{Class: class}, nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]SweepPoint, len(res.Points))
	for i, pr := range res.Points {
		snr := snrOf[pr.Point.Key]
		for _, class := range sweepClasses {
			sweepCounter(reg, model, side, snr, class).Add(uint64(pr.Counts[class]))
		}
		n := float64(pr.Trials)
		point := SweepPoint{
			SNRdB:         snr,
			Frames:        pr.Trials,
			CorruptedRate: float64(pr.Counts["corrupted"]) / n,
			LossRate:      float64(pr.Counts["lost"]) / n,
		}
		point.PER = point.CorruptedRate + point.LossRate
		point.PERLo, point.PERHi = runner.Wilson(pr.Counts["corrupted"]+pr.Counts["lost"], pr.Trials)
		out[i] = point
	}
	if err := obs.Or(cfg.Obs).Merge(reg); err != nil {
		return nil, err
	}
	return out, nil
}

// sweepTrial measures one frame at one operating point on a medium
// seeded from the trial's derived seed alone, routed through
// radio.Channel at the configured fidelity tier (a clean channel: no
// WiFi, no CFO — pure sensitivity). On the IQ tier the frame airs the
// run's waveform for its index (waveforms).
func sweepTrial(cfg SweepConfig, reg *obs.Registry, model chip.Model, side Side, waveforms func(int) (dsp.IQ, error),
	freq, snr float64, seed int64, frame int) (string, error) {
	medium, err := radio.NewMedium(float64(cfg.SamplesPerChip)*ieee802154.ChipRate, seed)
	if err != nil {
		return "", err
	}
	medium.Obs = reg

	_, rx := side.Ends(model)
	link := radio.Link{
		SNRdB:       snr - rx.NoiseFigureDB,
		LeadSamples: 30 * cfg.SamplesPerChip,
		LagSamples:  15 * cfg.SamplesPerChip,
	}
	ch, err := trialChannel(medium, cfg.Fidelity, cfg.SamplesPerChip, reg, model, side, waveforms, frame, nil)
	if err != nil {
		return "", err
	}
	out, err := ch.Deliver(radio.FrameSpec{
		PSDU:      CounterFrame(frame),
		TxFreqMHz: freq,
		RxFreqMHz: freq,
		Link:      link,
		Seed:      uint64(seed),
	})
	if err != nil {
		return "", err
	}
	switch {
	case out.DecodeErr != nil:
		return "lost", nil
	case out.Valid:
		return "valid", nil
	default:
		return "corrupted", nil
	}
}
