// Package experiment regenerates the paper's evaluation: the Table III
// assessment of the WazaBee reception and transmission primitives (100
// counter-tagged frames per Zigbee channel, classified as valid, received
// with integrity corruption, or not received) under the paper's
// experimental conditions — including the WiFi networks on channels 6 and
// 11 that degrade Zigbee channels 17–18 and 21–23.
//
// All experiments run on the trial-sharded Monte-Carlo engine of
// internal/experiment/runner: every frame's randomness derives from
// (seed, point, frame index) alone, so results are bit-identical at any
// worker count, in any point order, and across checkpoint/resume
// boundaries, and every rate estimate carries a 95% Wilson interval.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	oblink "wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// FramesMetric is the per-channel frame classification counter family
// of a Table III run: labels chip, side, channel and class
// (valid | corrupted | not_received).
const FramesMetric = "wazabee_experiment_frames_total"

// frameCounter returns the classification counter of one Table III cell.
func frameCounter(reg *obs.Registry, model chip.Model, side Side, channel int, class string) *obs.Counter {
	return reg.Counter(FramesMetric,
		"chip", model.Name,
		"side", side.String(),
		"channel", strconv.Itoa(channel),
		"class", class)
}

// Side selects which WazaBee primitive the run assesses.
type Side int

const (
	// Reception: a legitimate 802.15.4 radio transmits, the diverted
	// BLE chip receives.
	Reception Side = iota + 1
	// Transmission: the diverted BLE chip transmits, a legitimate
	// 802.15.4 radio (the RZUSBStick) receives.
	Transmission
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Reception:
		return "reception"
	case Transmission:
		return "transmission"
	default:
		return fmt.Sprintf("side(%d)", int(s))
	}
}

// Ends returns the two radios of the side's link for a diverted chip
// model: on Reception the RZUSBStick transmits to the model, on
// Transmission the model transmits to the RZUSBStick.
func (s Side) Ends(model chip.Model) (tx, rx chip.Model) {
	if s == Transmission {
		return model, chip.RZUSBStick()
	}
	return chip.RZUSBStick(), model
}

// Config parameterises a Table III run.
type Config struct {
	// FramesPerChannel is 100 in the paper.
	FramesPerChannel int
	// SamplesPerChip is the baseband oversampling factor.
	SamplesPerChip int
	// Workers bounds the Monte-Carlo worker pool; 0 means
	// runtime.GOMAXPROCS and a negative count is an error. Results do
	// not depend on the value.
	Workers int
	// Checkpoint, when non-empty, persists completed trial shards to this
	// path: a cancelled run can resume from it and finish bit-identically
	// to an uninterrupted one.
	Checkpoint string
	// CIHalfWidth, when non-zero, stops each channel adaptively once the
	// 95% Wilson half-width of its valid rate reaches this target, instead
	// of always spending FramesPerChannel frames. A negative, NaN or
	// infinite target is an error.
	CIHalfWidth float64
	// Obs, when non-nil, receives the run's telemetry: the per-channel
	// classification counters plus everything the instrumented pipeline
	// underneath (core, radio, ieee802154) reports. Each run accumulates
	// into a private registry and merges it in at the end, so a shared
	// registry never sees a half-finished run. Nil merges into the
	// process default registry.
	Obs *obs.Registry
	// Link, when non-nil, accumulates each frame's link diagnostics
	// (SNR, CFO, chip errors, LQI) by channel, so a Table III run also
	// yields the per-channel quality picture behind its tallies.
	Link *oblink.Aggregator
	// Seed makes the run reproducible.
	Seed int64
	// SNRdB is the link budget of the 3 m lab path before the
	// receiver's noise figure is subtracted.
	SNRdB float64
	// WiFi enables the interfering networks on WiFi channels 6 and 11.
	WiFi bool
	// WiFiDutyCycle and WiFiPower shape the interference (fraction of
	// airtime, power relative to the received signal).
	WiFiDutyCycle float64
	WiFiPower     float64
	// Fidelity selects the frame-delivery tier (see radio.Fidelity):
	// FidelityIQ (the default) replays the full DSP chain, FidelitySymbol
	// draws calibrated per-symbol chip errors through the real
	// despreader, FidelityFrame reduces each frame to one erasure draw.
	// Link aggregation (Config.Link) only populates on the IQ tier.
	Fidelity radio.Fidelity
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		FramesPerChannel: 100,
		SamplesPerChip:   8,
		Seed:             1,
		SNRdB:            10,
		WiFi:             true,
		WiFiDutyCycle:    0.005,
		WiFiPower:        6.0,
	}
}

// ChannelResult is one row of Table III for one chip and side.
type ChannelResult struct {
	Channel     int
	Valid       int
	Corrupted   int
	NotReceived int
}

// Frames is the number of frames the row tallies (FramesPerChannel,
// unless adaptive stopping ended the channel early).
func (c ChannelResult) Frames() int {
	return c.Valid + c.Corrupted + c.NotReceived
}

// ValidInterval returns the 95% Wilson score interval of the row's
// valid-frame rate.
func (c ChannelResult) ValidInterval() (lo, hi float64) {
	return runner.Wilson(c.Valid, c.Frames())
}

// Result is a full 16-channel column of Table III.
type Result struct {
	Chip   string
	Side   Side
	Frames int
	Rows   []ChannelResult
}

// Totals sums the classification counts over all channels.
func (r *Result) Totals() (valid, corrupted, notReceived int) {
	for _, row := range r.Rows {
		valid += row.Valid
		corrupted += row.Corrupted
		notReceived += row.NotReceived
	}
	return valid, corrupted, notReceived
}

// ValidRate returns the fraction of frames received without corruption,
// the headline averages of section V (98.6–99.4 %).
func (r *Result) ValidRate() float64 {
	valid, corrupted, notReceived := r.Totals()
	total := valid + corrupted + notReceived
	if total == 0 {
		return 0
	}
	return float64(valid) / float64(total)
}

// ValidRateInterval returns the 95% Wilson score interval of the overall
// valid rate.
func (r *Result) ValidRateInterval() (lo, hi float64) {
	valid, corrupted, notReceived := r.Totals()
	return runner.Wilson(valid, valid+corrupted+notReceived)
}

// Row returns the result row for a channel, and false when absent.
func (r *Result) Row(channel int) (ChannelResult, bool) {
	for _, row := range r.Rows {
		if row.Channel == channel {
			return row, true
		}
	}
	return ChannelResult{}, false
}

// table3Classes is the outcome class set of a Table III trial.
var table3Classes = []string{"valid", "corrupted", "not_received"}

// RunContext executes the Table III experiment for one chip model and
// side on the sharded Monte-Carlo runner: (channel, frame) work items on
// a bounded worker pool, every frame's randomness derived from
// (Seed, channel, frame) so the rows are reproducible regardless of
// parallelism and scheduling. Cancelling ctx stops the sweep; with
// cfg.Checkpoint set, the completed shards survive for resume.
func RunContext(ctx context.Context, cfg Config, model chip.Model, side Side) (*Result, error) {
	if cfg.FramesPerChannel < 1 {
		return nil, fmt.Errorf("experiment: frames per channel %d < 1", cfg.FramesPerChannel)
	}
	if err := checkSide(model, side, cfg.SamplesPerChip); err != nil {
		return nil, err
	}

	channels := ieee802154.Channels()
	// All telemetry of the run — the per-channel classification
	// counters and everything the pipeline underneath reports — lands
	// in a run-local registry, then merges into the caller's registry
	// once the run is known good.
	runReg := obs.NewRegistry()
	waveforms, err := runWaveforms(cfg.Fidelity, model, side, cfg.SamplesPerChip, cfg.FramesPerChannel, runReg)
	if err != nil {
		return nil, err
	}
	points := make([]runner.Point, len(channels))
	channelOf := make(map[string]int, len(channels))
	for i, channel := range channels {
		key := "ch" + strconv.Itoa(channel)
		points[i] = runner.Point{Key: key, Trials: cfg.FramesPerChannel}
		channelOf[key] = channel
	}
	spec := runner.Spec{
		Name:       "table3/" + model.Name + "/" + side.String(),
		Seed:       cfg.Seed,
		Points:     points,
		Workers:    cfg.Workers,
		Classes:    table3Classes,
		Checkpoint: cfg.Checkpoint,
		Obs:        runReg,
	}
	if cfg.CIHalfWidth != 0 {
		spec.Stop = &runner.Stop{Class: "valid", HalfWidth: cfg.CIHalfWidth}
	}

	res, err := runner.Run(ctx, spec, func(ctx context.Context, seed int64, point runner.Point, frame int) (runner.Outcome, error) {
		class, err := table3Trial(cfg, runReg, model, side, waveforms, channelOf[point.Key], seed, frame)
		if err != nil {
			return runner.Outcome{}, err
		}
		return runner.Outcome{Class: class}, nil
	})
	if err != nil {
		return nil, err
	}

	result := &Result{
		Chip:   model.Name,
		Side:   side,
		Frames: cfg.FramesPerChannel,
		Rows:   make([]ChannelResult, len(channels)),
	}
	for i, pr := range res.Points {
		channel := channelOf[pr.Point.Key]
		result.Rows[i] = ChannelResult{
			Channel:     channel,
			Valid:       pr.Counts["valid"],
			Corrupted:   pr.Counts["corrupted"],
			NotReceived: pr.Counts["not_received"],
		}
		// The per-channel counters mirror the runner tallies, keeping the
		// registry the queryable record of the run.
		for _, class := range table3Classes {
			frameCounter(runReg, model, side, channel, class).Add(uint64(pr.Counts[class]))
		}
	}
	if err := obs.Or(cfg.Obs).Merge(runReg); err != nil {
		return nil, err
	}
	return result, nil
}

// table3Trial measures one Table III frame: one transmission over a
// fresh medium whose every random draw — noise, burst timing, CFO,
// interference gating — flows from the trial's derived seed and nothing
// else. That isolation is what makes the cell independent of which
// worker, and in which order, ran it.
//
// Delivery routes through radio.Channel at the configured fidelity
// tier. The per-trial operating point (medium, WiFi environment, CFO
// draw) is built identically for every tier, so the symbol and frame
// tiers measure the same grid the IQ tier does — just through the
// calibrated tables instead of the DSP chain. On the IQ tier the frame
// airs the run's waveform for its index (waveforms).
func table3Trial(cfg Config, reg *obs.Registry, model chip.Model, side Side, waveforms func(int) (dsp.IQ, error),
	channel int, seed int64, frame int) (string, error) {
	sampleRate := float64(cfg.SamplesPerChip) * ieee802154.ChipRate
	medium, err := radio.NewMedium(sampleRate, seed)
	if err != nil {
		return "", err
	}
	medium.Obs = reg
	if cfg.WiFi {
		burst := cfg.SamplesPerChip * 100 // ≈ a short WiFi frame
		for _, wifiChannel := range []int{6, 11} {
			w, err := radio.NewWiFiInterferer(wifiChannel, cfg.WiFiDutyCycle, cfg.WiFiPower, burst)
			if err != nil {
				return "", err
			}
			medium.AddWiFi(w)
		}
	}

	freq, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return "", err
	}

	tx, rx := side.Ends(model)
	// The CFO draw is the first consumption of the medium's seeded
	// stream on every tier, keeping the IQ results byte-identical to the
	// pre-Channel implementation and giving the calibrated tiers the
	// same per-trial operating point.
	cfoHz := (medium.Rand().Float64()*2 - 1) * (tx.CrystalPPM + rx.CrystalPPM) * freq // 1 ppm at f MHz = f Hz
	link := radio.Link{
		SNRdB:                   cfg.SNRdB - rx.NoiseFigureDB,
		CFOHz:                   cfoHz,
		LeadSamples:             40 * cfg.SamplesPerChip,
		LagSamples:              20 * cfg.SamplesPerChip,
		InterferenceRejectionDB: rx.InterferenceRejectionDB,
	}

	var st *oblink.Stats
	ch, err := trialChannel(medium, cfg.Fidelity, cfg.SamplesPerChip, reg, model, side, waveforms, frame, &st)
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
	if cfg.Link != nil && st != nil {
		cfg.Link.Observe(channel, st)
	}

	switch {
	case errors.Is(out.DecodeErr, ieee802154.ErrNoSync):
		return "not_received", nil
	case out.DecodeErr != nil:
		return "", out.DecodeErr
	case out.Valid:
		return "valid", nil
	default:
		return "corrupted", nil
	}
}

// CounterFrame is frame n of a Table III run: a sensor data frame from
// the default sensor to the default coordinator whose MAC sequence
// number is n mod 256 and whose reading is the counter n mod 65536 (the
// paper's frames carry a counter incremented with each frame). The PER
// sweep, the calibration fit and `wazabee link` send the same frames.
func CounterFrame(n int) []byte {
	psdu, err := ieee802154.NewDataFrame(uint8(n), zigbee.DefaultPAN, zigbee.DefaultCoordinator,
		zigbee.DefaultSensor, zigbee.SensorPayload(uint16(n)), false).Encode()
	if err != nil {
		// The header is fixed and valid; only a broken encoder fails.
		panic(fmt.Sprintf("experiment: counter frame %d: %v", n, err))
	}
	return psdu
}

// checkSide rejects an invalid side and builds the diverted chip's
// WazaBee primitive for the side once, so a chip that cannot play it
// (no BLE radio, CRC checking locked on) fails the run up front instead
// of failing every trial.
func checkSide(model chip.Model, side Side, samplesPerChip int) error {
	var err error
	switch side {
	case Reception:
		_, err = model.NewWazaBeeReceiver(samplesPerChip)
	case Transmission:
		_, err = model.NewWazaBeeTransmitter(samplesPerChip)
	default:
		err = fmt.Errorf("experiment: invalid side %d", int(side))
	}
	return err
}

// trialChannel builds one trial's delivery channel over medium at the
// fidelity tier fid (zero means FidelityIQ). At the IQ tier the run's
// waveform of counter frame `frame` (waveforms) feeds the receiving
// end's demodulator, which reports to reg, and when stats is non-nil
// each delivery stores the receiver's link diagnostics there; the
// calibrated tiers draw from the diverted chip's profile for the side.
func trialChannel(medium *radio.Medium, fid radio.Fidelity, samplesPerChip int, reg *obs.Registry,
	model chip.Model, side Side, waveforms func(int) (dsp.IQ, error), frame int, stats **oblink.Stats) (radio.Channel, error) {
	if !iqTier(fid) {
		return medium.Channel(fid, radio.ChannelOptions{
			Profile: radio.CalProfileName(model.Name, side.String()),
		})
	}
	_, rx := side.Ends(model)
	demodulate, err := rx.Demodulator(samplesPerChip, reg, nil)
	if err != nil {
		return nil, err
	}
	return medium.Channel(radio.FidelityIQ, radio.ChannelOptions{Endpoints: &radio.IQEndpoints{
		// The PSDU is CounterFrame(frame), whose waveform the run made.
		Modulate: func([]byte) (dsp.IQ, error) { return waveforms(frame) },
		Demodulate: func(capture dsp.IQ) ([]byte, error) {
			dem, st, err := demodulate(capture)
			if stats != nil {
				*stats = st
			}
			if err != nil {
				return nil, err
			}
			return dem.PPDU.PSDU, nil
		},
	}})
}
