package capture

import (
	"fmt"

	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// ReplayConfig parameterises playing a recorded capture back through
// the simulated radio medium. All randomness (noise, burst timing)
// flows from Seed, so two replays of the same records are sample-exact
// — any saved capture is a reproducible regression input.
type ReplayConfig struct {
	// SamplesPerChip is the baseband oversampling factor (≥ 2).
	SamplesPerChip int
	// Seed drives the replay medium's deterministic randomness.
	Seed int64
	// SNRdB is the link quality the replayed bursts are degraded to.
	SNRdB float64
	// CFOHz models the crystal offset between the replayed transmitter
	// and the listening receiver.
	CFOHz float64
	// Channel tunes the listening receiver. Zero listens on each
	// record's own channel (falling back to zigbee.DefaultChannel, the
	// victim network's channel, for records whose channel is unknown —
	// e.g. recovered from a bare pcap).
	Channel int
	// Obs receives the replay counters and the medium's metrics; nil
	// falls back to the process default registry.
	Obs *obs.Registry
}

// Replay re-modulates each record's PSDU with the legitimate O-QPSK
// PHY, propagates it through a seeded radio.Medium and hands the
// resulting waveform — what a receiver's ADC would have seen — to
// sink together with the originating record. Records without a PSDU
// are skipped. A sink error stops the playback.
func Replay(records []Record, cfg ReplayConfig, sink func(Record, dsp.IQ) error) error {
	if sink == nil {
		return fmt.Errorf("capture: nil replay sink")
	}
	phy, err := ieee802154.NewPHY(cfg.SamplesPerChip)
	if err != nil {
		return err
	}
	medium, err := radio.NewMedium(float64(cfg.SamplesPerChip)*ieee802154.ChipRate, cfg.Seed)
	if err != nil {
		return err
	}
	reg := obs.Or(cfg.Obs)
	medium.Obs = reg
	link := radio.Link{SNRdB: cfg.SNRdB, CFOHz: cfg.CFOHz, LeadSamples: 200, LagSamples: 120}

	for _, rec := range records {
		if len(rec.PSDU) == 0 {
			continue
		}
		txChannel := rec.Channel
		if txChannel == 0 {
			txChannel = zigbee.DefaultChannel
		}
		rxChannel := cfg.Channel
		if rxChannel == 0 {
			rxChannel = txChannel
		}
		txFreq, err := ieee802154.ChannelFrequencyMHz(txChannel)
		if err != nil {
			return fmt.Errorf("capture: replay record channel: %w", err)
		}
		rxFreq, err := ieee802154.ChannelFrequencyMHz(rxChannel)
		if err != nil {
			return fmt.Errorf("capture: replay listen channel: %w", err)
		}

		ppdu, err := ieee802154.NewPPDU(rec.PSDU)
		if err != nil {
			return err
		}
		sig, err := phy.Modulate(ppdu)
		if err != nil {
			return err
		}
		out, err := medium.Replay(sig, txFreq, rxFreq, link)
		if err != nil {
			return err
		}
		reg.Counter("wazabee_capture_replayed_total").Inc()
		if err := sink(rec, out); err != nil {
			return err
		}
	}
	return nil
}

// ReplayThroughReceiver plays records into a WazaBee receiver — the
// diverted-BLE primitive hearing a recording of the network it once
// sniffed. The result is index-aligned with the replayable (PSDU-
// bearing) records: each entry is the decoded demodulation or nil when
// that burst was not received.
func ReplayThroughReceiver(records []Record, cfg ReplayConfig, rx *core.Receiver) ([]*ieee802154.Demodulated, error) {
	if rx == nil {
		return nil, fmt.Errorf("capture: nil receiver")
	}
	var out []*ieee802154.Demodulated
	err := Replay(records, cfg, func(_ Record, sig dsp.IQ) error {
		dem, err := rx.Receive(sig)
		if err != nil {
			out = append(out, nil)
			return nil // a miss is data, not a replay failure
		}
		out = append(out, dem)
		return nil
	})
	return out, err
}
