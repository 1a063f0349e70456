package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// table3Frames is the frames per channel of one table3-iq round, which
// is then 2 chips × 2 sides × 16 channels × 16 frames = 1,024 IQ round
// trips.
const table3Frames = 16

var (
	table3Models  = []chip.Model{chip.NRF52832(), chip.CC1352R1()}
	table3Sides   = []experiment.Side{experiment.Reception, experiment.Transmission}
	table3Classes = []string{"valid", "corrupted", "not_received"}
)

// table3 is the table3-iq workload: the cmd/table3 defaults (both
// diverted chips, both sides, 16 channels, WiFi on, IQ tier) at
// table3Frames frames per channel.
type table3 struct{ cfg experiment.Config }

func setupTable3(seed int64, workers int) (workload, error) {
	cfg := experiment.DefaultConfig()
	cfg.FramesPerChannel = table3Frames
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Fidelity = radio.FidelityIQ
	// Every trial builds these modems; building them once here makes a
	// constructor that grows a table show in setup_s.
	if _, err := chip.RZUSBStick().NewZigbeePHY(cfg.SamplesPerChip); err != nil {
		return nil, err
	}
	for _, m := range table3Models {
		if _, err := m.NewWazaBeeReceiver(cfg.SamplesPerChip); err != nil {
			return nil, err
		}
		if _, err := m.NewWazaBeeTransmitter(cfg.SamplesPerChip); err != nil {
			return nil, err
		}
	}
	return &table3{cfg: cfg}, nil
}

// round runs the four Table III columns. Untraced it calls
// experiment.RunContext, as cmd/table3 does; traced it recomposes the
// same trials on the same runner.Spec.
func (t *table3) round(ctx context.Context, l *layers) (roundResult, error) {
	frames := float64(len(table3Models) * len(table3Sides) * len(ieee802154.Channels()) * table3Frames)
	r := roundResult{ops: frames, allocOps: frames}
	reg := obs.NewRegistry()
	var results []*experiment.Result
	watch := startWatch()
	for _, model := range table3Models {
		for _, side := range table3Sides {
			var res *experiment.Result
			var err error
			if l == nil {
				cfg := t.cfg
				cfg.Obs = reg
				res, err = experiment.RunContext(ctx, cfg, model, side)
			} else {
				res, err = t.traced(ctx, reg, model, side, l)
			}
			if err != nil {
				return r, err
			}
			results = append(results, res)
		}
	}
	r.wall, r.cpu = watch.stop()
	r.output, r.counts = table3Output(results)
	return r, nil
}

// table3Output digests the per-channel tallies and totals the classes.
func table3Output(results []*experiment.Result) (string, map[string]float64) {
	var b strings.Builder
	counts := map[string]float64{}
	for _, res := range results {
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%s/%s ch%d %d %d %d\n", res.Chip, res.Side, row.Channel, row.Valid, row.Corrupted, row.NotReceived)
		}
		valid, corrupted, notReceived := res.Totals()
		counts["experiment.frames_valid"] += float64(valid)
		counts["experiment.frames_corrupted"] += float64(corrupted)
		counts["experiment.frames_not_received"] += float64(notReceived)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), counts
}

// traced is experiment.RunContext with the trial recomposed from
// public calls and traced: the same runner.Spec, so every trial gets
// the same derived seed and the tallies must match.
func (t *table3) traced(ctx context.Context, reg *obs.Registry, model chip.Model, side experiment.Side, l *layers) (*experiment.Result, error) {
	runReg := obs.NewRegistry()
	channels := ieee802154.Channels()
	points := make([]runner.Point, len(channels))
	channelOf := make(map[string]int, len(channels))
	for i, channel := range channels {
		key := "ch" + strconv.Itoa(channel)
		points[i] = runner.Point{Key: key, Trials: t.cfg.FramesPerChannel}
		channelOf[key] = channel
	}
	spec := runner.Spec{
		Name:    "table3/" + model.Name + "/" + side.String(),
		Seed:    t.cfg.Seed,
		Points:  points,
		Workers: t.cfg.Workers,
		Classes: table3Classes,
		Obs:     runReg,
	}
	res, err := runner.Run(ctx, spec, func(ctx context.Context, seed int64, point runner.Point, frame int) (runner.Outcome, error) {
		began := time.Now()
		tr := obs.NewTrace(spec.Name)
		root := tr.Start("experiment.trial")
		class, err := t.trial(tr, runReg, model, side, channelOf[point.Key], seed, frame)
		root.End()
		l.add(tr, time.Since(began))
		if err != nil {
			return runner.Outcome{}, err
		}
		return runner.Outcome{Class: class}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &experiment.Result{Chip: model.Name, Side: side, Frames: t.cfg.FramesPerChannel}
	for _, pr := range res.Points {
		out.Rows = append(out.Rows, experiment.ChannelResult{
			Channel:     channelOf[pr.Point.Key],
			Valid:       pr.Counts["valid"],
			Corrupted:   pr.Counts["corrupted"],
			NotReceived: pr.Counts["not_received"],
		})
	}
	return out, reg.Merge(runReg)
}

// trial is one Table III frame built from the public calls the
// experiment package makes, in the same order so every seeded draw
// lands the same, with a span around each layer.
func (t *table3) trial(tr *obs.Trace, reg *obs.Registry, model chip.Model, side experiment.Side, channel int, seed int64, frame int) (string, error) {
	cfg := t.cfg
	sps := cfg.SamplesPerChip
	setup := tr.Start("experiment.trial_setup")
	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, seed)
	if err != nil {
		return "", err
	}
	medium.Obs = reg
	if cfg.WiFi {
		for _, wifiChannel := range []int{6, 11} {
			w, err := radio.NewWiFiInterferer(wifiChannel, cfg.WiFiDutyCycle, cfg.WiFiPower, sps*100)
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
	psdu, err := ieee802154.NewDataFrame(uint8(frame), zigbee.DefaultPAN, zigbee.DefaultCoordinator,
		zigbee.DefaultSensor, zigbee.SensorPayload(uint16(frame)), false).Encode()
	if err != nil {
		return "", err
	}
	txModel, rxModel := chip.RZUSBStick(), model
	if side == experiment.Transmission {
		txModel, rxModel = model, txModel
	}
	cfoHz := (medium.Rand().Float64()*2 - 1) * (txModel.CrystalPPM + rxModel.CrystalPPM) * freq
	link := radio.Link{
		SNRdB:                   cfg.SNRdB - rxModel.NoiseFigureDB,
		CFOHz:                   cfoHz,
		LeadSamples:             40 * sps,
		LagSamples:              20 * sps,
		InterferenceRejectionDB: rxModel.InterferenceRejectionDB,
	}
	ep, err := t.endpoints(tr, reg, model, side)
	if err != nil {
		return "", err
	}
	ch, err := medium.Channel(radio.FidelityIQ, radio.ChannelOptions{Endpoints: ep})
	if err != nil {
		return "", err
	}
	setup.End()

	// Channel.Deliver's self time is the medium: noise floor, CFO mix
	// and WiFi bursts; the modem calls are child spans.
	deliver := tr.Start("radio.medium")
	out, err := ch.Deliver(radio.FrameSpec{PSDU: psdu, TxFreqMHz: freq, RxFreqMHz: freq, Link: link, Seed: uint64(seed)})
	deliver.End()
	if err != nil {
		return "", err
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

// endpoints pairs the RZUSBStick O-QPSK modem with the diverted chip's
// WazaBee primitive, each call in its own span.
func (t *table3) endpoints(tr *obs.Trace, reg *obs.Registry, model chip.Model, side experiment.Side) (*radio.IQEndpoints, error) {
	sps := t.cfg.SamplesPerChip
	zigbeePHY, err := chip.RZUSBStick().NewZigbeePHY(sps)
	if err != nil {
		return nil, err
	}
	zigbeePHY.Obs = reg
	if side == experiment.Reception {
		rx, err := model.NewWazaBeeReceiver(sps)
		if err != nil {
			return nil, err
		}
		rx.Obs = reg
		return &radio.IQEndpoints{
			Modulate: modulateSpan(tr, "ieee802154.modulate", zigbeePHY.Modulate),
			Demodulate: func(capture dsp.IQ) ([]byte, error) {
				defer tr.Start("core.receive").End()
				dem, _, err := rx.ReceiveStats(capture)
				if err != nil {
					return nil, err
				}
				return dem.PPDU.PSDU, nil
			},
		}, nil
	}
	tx, err := model.NewWazaBeeTransmitter(sps)
	if err != nil {
		return nil, err
	}
	tx.Obs = reg
	return &radio.IQEndpoints{
		Modulate: modulateSpan(tr, "core.modulate", tx.Modulate),
		Demodulate: func(capture dsp.IQ) ([]byte, error) {
			defer tr.Start("ieee802154.demodulate").End()
			dem, _, err := zigbeePHY.DemodulateStats(capture)
			if err != nil {
				return nil, err
			}
			return dem.PPDU.PSDU, nil
		},
	}, nil
}

// modulateSpan wraps a PPDU modulator as an IQ endpoint traced under
// name.
func modulateSpan(tr *obs.Trace, name string, modulate func(*ieee802154.PPDU) (dsp.IQ, error)) func([]byte) (dsp.IQ, error) {
	return func(psdu []byte) (dsp.IQ, error) {
		defer tr.Start(name).End()
		ppdu, err := ieee802154.NewPPDU(psdu)
		if err != nil {
			return nil, err
		}
		return modulate(ppdu)
	}
}

func (t *table3) layerMetrics(l *layers, _ []roundResult) (map[string]float64, error) {
	m := map[string]float64{}
	us := float64(time.Microsecond)
	if err := putQuantiles(m, "experiment.trial_us", l.dur["experiment.trial"], us, 0.5, 0.99); err != nil {
		return nil, err
	}
	if err := putQuantiles(m, "experiment.trial_setup_us", l.dur["experiment.trial_setup"], us, 0.5); err != nil {
		return nil, err
	}
	m["experiment.trial_setup.share"] = l.share("experiment.trial_setup")
	for _, layer := range []string{"ieee802154.modulate", "core.modulate", "radio.medium", "core.receive", "ieee802154.demodulate"} {
		if err := putQuantiles(m, layer+"_us", l.self[layer], us, 0.5, 0.99); err != nil {
			return nil, err
		}
		m[layer+".share"] = l.share(layer)
	}
	return m, nil
}
