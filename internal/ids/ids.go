// Package ids implements the counter-measures of section VII: a
// radio-monitoring intrusion detection system that inspects 2.4 GHz
// captures for cross-technology attacks. It combines three detectors:
//
//   - BLE-framing detection: an 802.15.4 frame embedded inside a BLE
//     advertising packet (the scenario A injection path) leaves the BLE
//     preamble and Access Address on the air right before the Zigbee
//     preamble;
//   - modulation fingerprinting: a GFSK transmitter's Gaussian
//     inter-symbol interference leaves a measurably higher despreading
//     distance floor than a native O-QPSK radio;
//   - band policy: 802.15.4 traffic on a network where none is deployed
//     (or on an unexpected channel) is suspicious by itself, in the
//     spirit of the multi-protocol monitoring of [31].
package ids

import (
	"fmt"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

// AlertKind classifies what a detector found.
type AlertKind int

const (
	// AlertBLEFraming fires when a decoded 802.15.4 frame is preceded
	// on the air by BLE advertising framing — the scenario A signature.
	AlertBLEFraming AlertKind = iota + 1
	// AlertModulationFingerprint fires when a frame's despreading
	// distance profile looks like a diverted GFSK transmitter rather
	// than a native O-QPSK radio.
	AlertModulationFingerprint
	// AlertUnexpectedTraffic fires when any 802.15.4 frame appears on a
	// channel the deployment policy marks as unused.
	AlertUnexpectedTraffic
)

// String implements fmt.Stringer.
func (k AlertKind) String() string {
	switch k {
	case AlertBLEFraming:
		return "ble-framing"
	case AlertModulationFingerprint:
		return "modulation-fingerprint"
	case AlertUnexpectedTraffic:
		return "unexpected-traffic"
	default:
		return fmt.Sprintf("alert(%d)", int(k))
	}
}

// Alert is one detector finding.
type Alert struct {
	Kind   AlertKind
	Detail string
}

// Verdict is the result of inspecting one capture.
type Verdict struct {
	// FrameSeen reports whether an 802.15.4 frame decoded at all.
	FrameSeen bool
	// Frame is the decoded frame when FrameSeen (FCS not verified).
	Frame *ieee802154.Demodulated
	// SoftEVM is the fingerprint statistic of the frame: RMS deviation
	// of the per-chip phase steps from the nominal ±π/2.
	SoftEVM float64
	// Alerts lists everything the detectors flagged.
	Alerts []Alert
}

// Suspicious reports whether any detector fired.
func (v *Verdict) Suspicious() bool {
	return len(v.Alerts) > 0
}

// Has reports whether an alert of the given kind is present.
func (v *Verdict) Has(kind AlertKind) bool {
	for _, a := range v.Alerts {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

// Monitor is a passive multi-protocol watcher for one channel.
type Monitor struct {
	zigbeePHY *ieee802154.PHY
	blePHY    *ble.PHY

	// FingerprintThreshold is the soft-EVM value above which a frame is
	// flagged as GFSK-originated. On links with SNR above roughly 12 dB
	// a native O-QPSK transmitter stays well below 0.2 rad while the
	// Gaussian ISI of a diverted BLE chip keeps the statistic above
	// 0.33 rad; at lower SNR the noise floor dominates and the
	// fingerprint loses discrimination (an honest limitation of this
	// class of counter-measure).
	FingerprintThreshold float64

	// ChannelExpected reports whether legitimate 802.15.4 traffic is
	// expected on the monitored channel; when false, every frame raises
	// AlertUnexpectedTraffic. Defaults to true.
	ChannelExpected bool

	// Obs receives the monitor's metrics (inspections, frames seen,
	// detections by alert kind); nil falls back to the process default
	// registry.
	Obs *obs.Registry
}

// NewMonitor builds a monitor at the given oversampling factor.
func NewMonitor(samplesPerChip int) (*Monitor, error) {
	zphy, err := ieee802154.NewPHY(samplesPerChip)
	if err != nil {
		return nil, err
	}
	// The watcher wants to see even marginal frames: disable the
	// quality gate.
	zphy.MaxChipDistance = 0
	zphy.MaxSyncErrors = 8
	bphy, err := ble.NewPHY(ble.LE2M, samplesPerChip)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		zigbeePHY:            zphy,
		blePHY:               bphy,
		FingerprintThreshold: DefaultFingerprintThreshold,
		ChannelExpected:      true,
	}, nil
}

// bleAdvPattern is the on-air signature of a BLE advertising packet at
// LE 2M: two preamble bytes followed by the advertising Access Address.
func bleAdvPattern() bitstream.Bits {
	pre := bitstream.BytesToBits([]byte{0xaa, 0xaa}) // AA LSB is 0
	return append(pre, bitstream.Uint32ToBits(ble.AdvAccessAddress)...)
}

// Inspect runs all detectors over one capture. It extracts the frame's
// features from the waveform — the soft EVM of the O-QPSK decode and a
// search for BLE advertising framing — and judges them with the same
// policy as FrameMonitor.Judge.
func (m *Monitor) Inspect(capture dsp.IQ) (*Verdict, error) {
	if len(capture) == 0 {
		return nil, fmt.Errorf("ids: empty capture")
	}
	reg := obs.Or(m.Obs)
	reg.Counter("wazabee_ids_inspections_total").Inc()
	// The inner O-QPSK decoder reports to the same registry as the
	// monitor that owns it.
	m.zigbeePHY.Obs = m.Obs
	verdict := &Verdict{}

	dem, err := m.zigbeePHY.Demodulate(capture)
	if err != nil {
		// No 802.15.4 frame; nothing further to fingerprint.
		return verdict, nil
	}
	verdict.FrameSeen = true
	verdict.Frame = dem
	verdict.SoftEVM = dem.SoftEVM

	// Scenario A leaves BLE advertising framing on the air around the
	// embedded frame: search the raw 2 Mbit/s bit stream for it.
	framing, err := m.blePHY.DemodulateFrame(capture, bleAdvPattern(), 3)
	detect(FrameFeatures{SoftEVM: dem.SoftEVM, BLEFraming: err == nil && framing != nil},
		m.FingerprintThreshold, m.ChannelExpected, verdict)
	reg.Counter("wazabee_ids_frames_seen_total").Inc()
	for _, a := range verdict.Alerts {
		reg.Counter("wazabee_ids_detections_total", "kind", a.Kind.String()).Inc()
	}
	return verdict, nil
}
