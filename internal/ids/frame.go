package ids

import (
	"fmt"

	"wazabee/internal/obs"
)

// DefaultFingerprintThreshold is the soft-EVM decision threshold both
// monitor tiers default to: above roughly 12 dB SNR a native O-QPSK
// transmitter stays well below 0.2 rad while a diverted GFSK chip stays
// above 0.33 rad, so 0.27 splits the calibrated distributions.
const DefaultFingerprintThreshold = 0.27

// FrameFeatures are the detector inputs of one frame at the frame
// fidelity tier, where no waveform exists to demodulate: the fingerprint
// statistic and framing evidence arrive pre-extracted (in simulation,
// drawn from the calibrated distributions the IQ tier measures).
type FrameFeatures struct {
	// SoftEVM is the modulation-fingerprint statistic: RMS deviation of
	// the per-chip phase steps from the nominal ±π/2, in radians.
	SoftEVM float64
	// BLEFraming reports that BLE advertising framing (preamble and
	// Access Address) preceded the 802.15.4 frame on the air — the
	// scenario A signature.
	BLEFraming bool
}

// FrameMonitor is the frame-tier counterpart of Monitor: it applies the
// same detector policy (detect) to pre-extracted frame features instead
// of IQ captures, so campaign-scale simulations can exercise the IDS
// decision logic without synthesising a waveform per frame. Thresholds
// and alert kinds are shared with the IQ tier — a threshold sweep over
// either tier explores the same operating curve.
type FrameMonitor struct {
	// FingerprintThreshold is the soft-EVM value above which a frame is
	// flagged as GFSK-originated (see Monitor.FingerprintThreshold).
	FingerprintThreshold float64

	// ChannelExpected reports whether legitimate 802.15.4 traffic is
	// expected on the monitored channel; when false, every frame raises
	// AlertUnexpectedTraffic. Defaults to true.
	ChannelExpected bool

	// Obs receives the monitor's metrics; nil falls back to the process
	// default registry.
	Obs *obs.Registry

	ctrs obs.CounterCache // over frameCounterSeries
}

// frameCounterSeries lists the counters Judge bumps: the inspection
// total at index 0, then each alert kind's detection series at the
// kind's own value.
var frameCounterSeries = [][]string{
	0:                          {"wazabee_ids_frame_inspections_total"},
	AlertBLEFraming:            {"wazabee_ids_frame_detections_total", "kind", AlertBLEFraming.String()},
	AlertModulationFingerprint: {"wazabee_ids_frame_detections_total", "kind", AlertModulationFingerprint.String()},
	AlertUnexpectedTraffic:     {"wazabee_ids_frame_detections_total", "kind", AlertUnexpectedTraffic.String()},
}

// NewFrameMonitor builds a frame-tier monitor with the default policy.
func NewFrameMonitor() *FrameMonitor {
	return &FrameMonitor{
		FingerprintThreshold: DefaultFingerprintThreshold,
		ChannelExpected:      true,
	}
}

// Judge runs the detector policy over one frame's features. Inspect
// runs the same policy, so its verdicts carry the same alerts in the
// same order (band policy, fingerprint, framing), and downstream
// consumers need not know which tier produced them. Judge is small
// enough to inline, so a caller that does not keep the verdict holds it
// on its stack: a clean frame costs no allocation.
func (m *FrameMonitor) Judge(f FrameFeatures) *Verdict {
	verdict := &Verdict{FrameSeen: true, SoftEVM: f.SoftEVM}
	m.judge(f, verdict)
	return verdict
}

// judge appends f's alerts to verdict and counts them.
func (m *FrameMonitor) judge(f FrameFeatures, verdict *Verdict) {
	reg := obs.Or(m.Obs)
	m.ctrs.Counter(reg, frameCounterSeries, 0).Inc()
	detect(f, m.FingerprintThreshold, m.ChannelExpected, verdict)
	for _, a := range verdict.Alerts {
		m.ctrs.Counter(reg, frameCounterSeries, int(a.Kind)).Inc()
	}
}

// detect is the detector policy both monitors apply to a seen frame's
// features: band policy, modulation fingerprint, then BLE framing, each
// appending its alert to verdict. Counting the alerts is the caller's,
// since each monitor keeps its own metric family.
func detect(f FrameFeatures, threshold float64, channelExpected bool, verdict *Verdict) {
	if !channelExpected {
		verdict.Alerts = append(verdict.Alerts, Alert{
			Kind:   AlertUnexpectedTraffic,
			Detail: "802.15.4 frame on a channel with no deployed network",
		})
	}
	if f.SoftEVM > threshold {
		verdict.Alerts = append(verdict.Alerts, Alert{
			Kind: AlertModulationFingerprint,
			Detail: fmt.Sprintf("soft EVM %.2f rad above threshold %.2f",
				f.SoftEVM, threshold),
		})
	}
	if f.BLEFraming {
		verdict.Alerts = append(verdict.Alerts, Alert{
			Kind:   AlertBLEFraming,
			Detail: "BLE advertising preamble and Access Address precede the 802.15.4 frame",
		})
	}
}
