package core

import (
	"fmt"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// Receiver is the WazaBee reception primitive: a BLE radio configured with
// the MSK preamble pattern as its Access Address, CRC checking disabled
// and whitening bypassed (ble.PHY.DemodulateFrame), whose demodulated bit
// stream is despread by Hamming distance into 802.15.4 symbols by
// ieee802154.DecodePPDUFromTransitions, the decoder a native O-QPSK
// receiver runs.
type Receiver struct {
	phy *ble.PHY

	// MaxPatternErrors is the tolerated bit-error count in the 32-bit
	// Access Address correlation (hardware typically allows a few).
	MaxPatternErrors int

	// MaxChipDistance is the despreading quality gate: frames whose
	// worst per-symbol Hamming distance exceeds it are dropped as not
	// received, like a correlation-threshold receiver aborting. Zero
	// disables the gate.
	MaxChipDistance int

	// Obs receives the receiver's metrics (frames, sync failures,
	// chip-distance histograms, stage timings); nil falls back to the
	// process default registry.
	Obs *obs.Registry

	// Trace, when non-nil, records a span per pipeline stage
	// (aa-correlate, then despread once synchronised) for each Receive
	// call.
	Trace *obs.Trace
}

// accessPattern is AccessPattern computed once and shared read-only by
// every receiver.
var accessPattern = AccessPattern()

// NewReceiver wraps a BLE PHY; like the transmitter it requires the 2
// Mbit/s rate.
func NewReceiver(phy *ble.PHY) (*Receiver, error) {
	if phy == nil {
		return nil, fmt.Errorf("core: nil PHY")
	}
	rate, err := phy.Mode.SymbolRate()
	if err != nil {
		return nil, err
	}
	if rate != ieee802154.ChipRate {
		return nil, fmt.Errorf("core: %v runs at %d sym/s; WazaBee needs the %d chip/s rate (use LE 2M)",
			phy.Mode, rate, ieee802154.ChipRate)
	}
	return &Receiver{phy: phy, MaxPatternErrors: 3, MaxChipDistance: 15}, nil
}

// Receive demodulates a capture with the BLE GFSK receiver, locks onto the
// 802.15.4 preamble via the MSK Access Address, splits the bit stream into
// 31-bit blocks and despreads each block to the nearest PN sequence. Every
// returned "not received" error satisfies errors.Is(err, ErrNoSync), with
// the underlying cause (no preamble, mid-frame abort, quality gate) kept
// in the chain so telemetry and callers can tell them apart.
func (r *Receiver) Receive(sig dsp.IQ) (*ieee802154.Demodulated, error) {
	dem, _, err := r.ReceiveStats(sig)
	return dem, err
}

// ReceiveStats runs the same receiver but additionally returns the
// per-frame link diagnostics. The stats are never nil: every attempt —
// sync failure, mid-frame abort, quality-gate drop or clean decode —
// yields a finalized record with at least the capture RSSI, and the
// record is also fed to the receiver's metrics registry. The Receiver
// holds no per-call state, so concurrent calls are safe.
func (r *Receiver) ReceiveStats(sig dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error) {
	return r.ReceiveStatsAt(time.Time{}, sig)
}

// ReceiveStatsAt is ReceiveStats for an origin-stamped capture: origin
// is the capture's monotonic emission time (sim.LiveCapture.At), and
// the call observes the emission→verdict distance into the
// wazabee_latency_seconds{stage="demod"} histogram for every verdict,
// decoded or not, so the latency population is not survivorship-biased
// toward clean frames. A zero origin degrades to plain ReceiveStats.
func (r *Receiver) ReceiveStatsAt(origin time.Time, sig dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error) {
	reg := obs.Or(r.Obs)
	st := &link.Stats{RSSIdBFS: link.RSSIdBFS(sig)}
	defer func() {
		st.Finalize()
		link.Observe(reg, st, "decoder", "wazabee")
		obs.ObserveLatency(reg, "demod", origin, "decoder", "wazabee")
	}()

	endCorrelate := obs.Stage(reg, r.Trace, "aa-correlate")
	c, err := r.phy.DemodulateFrame(sig, accessPattern, r.MaxPatternErrors)
	endCorrelate()
	if err != nil {
		reg.Counter("wazabee_sync_failures_total", "decoder", "wazabee").Inc()
		// Normalise to the PHY-level sentinel so callers classify
		// "not received" uniformly, but keep the BLE demodulator's
		// error as the distinguishable cause.
		return nil, st, fmt.Errorf("core: access address correlation: %w: %w", ieee802154.ErrNoSync, err)
	}
	st.Synced = true
	st.SyncErrors = c.PatternErrors
	st.SyncCorr = c.SyncScore
	st.CFOHz = link.CFOFromBias(c.CFOBias, ieee802154.ChipRate)
	reg.Histogram("wazabee_aa_pattern_errors", obs.LinearBuckets(0, 1, 9), "decoder", "wazabee").
		Observe(float64(c.PatternErrors))

	endDespread := obs.Stage(reg, r.Trace, "despread")
	dem, err := ieee802154.DecodePPDUFromTransitions(c.Bits, 0)
	endDespread()
	if err != nil {
		reg.Counter("wazabee_despread_failures_total", "decoder", "wazabee").Inc()
		// A mid-frame abort after a good Access Address match: still
		// "not received", but distinguishable from a sync failure.
		return nil, st, fmt.Errorf("core: despread after sync: %w", err)
	}
	st.WorstChipDistance = dem.WorstChipDistance
	st.ChipErrors = dem.TotalChipDistance
	st.ChipsCompared = dem.SymbolCount * (ieee802154.ChipsPerSymbol - 1)
	st.DistHist = dem.ChipDistHist

	// The frame span at the recovered timing phase bounds the signal
	// power measurement; everything outside it is the noise floor. Two
	// chip periods of guard on each side keep the half-chip O-QPSK
	// offset, the trailing chip past the last transition and the
	// Gaussian pulse tails out of the noise estimate.
	sps := r.phy.SamplesPerSymbol
	frameStart := c.SampleOffset + c.PatternStart*sps
	frameEnd := frameStart + dem.TransitionSpan*sps
	if rssi, noise, snr, ok := link.Measure(sig, frameStart, frameEnd, 2*sps); ok {
		st.RSSIdBFS, st.NoisedBFS, st.SNRdB, st.SNRValid = rssi, noise, snr, true
	} else {
		st.RSSIdBFS = rssi
	}

	reg.Histogram("wazabee_worst_chip_distance", obs.DistanceBuckets, "decoder", "wazabee").
		Observe(float64(dem.WorstChipDistance))
	if r.MaxChipDistance > 0 && dem.WorstChipDistance > r.MaxChipDistance {
		st.Gated = true
		reg.Counter("wazabee_quality_gate_drops_total", "decoder", "wazabee").Inc()
		return nil, st, fmt.Errorf("core: worst chip distance %d exceeds gate %d: %w",
			dem.WorstChipDistance, r.MaxChipDistance, ieee802154.ErrNoSync)
	}
	dem.SyncErrors = c.PatternErrors
	dem.SampleOffset = c.SampleOffset
	dem.CFOBias = c.CFOBias
	dem.SyncCorr = c.SyncScore

	st.Decoded = true
	st.FCSOK = bitstream.CheckFCS(dem.PPDU.PSDU)
	dem.Link = st

	reg.Counter("wazabee_frames_received_total", "decoder", "wazabee").Inc()
	result := "pass"
	if !st.FCSOK {
		result = "fail"
	}
	reg.Counter("wazabee_crc_checks_total", "decoder", "wazabee", "result", result).Inc()
	return dem, st, nil
}

// PHY exposes the underlying BLE modem.
func (r *Receiver) PHY() *ble.PHY {
	return r.phy
}
