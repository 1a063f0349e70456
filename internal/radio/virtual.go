package radio

// VirtualOutcome is the frame-level result of a virtual-time delivery:
// whether the burst reached the receiver's passband at all, and whether
// the frame survived the link's noise. It is the discrete-event
// simulator's stand-in for the waveform Deliver returns — the same link
// physics collapsed to one deterministic per-frame decision, so a
// thousand-node mesh never pays for IQ synthesis.
type VirtualOutcome struct {
	// InBand reports that the transmission landed within one channel
	// width of the receiver's tuning (the condition under which Deliver
	// would have mixed the burst into the capture).
	InBand bool
	// Delivered reports that the frame decoded at the receiver: in band
	// and not erased by noise.
	Delivered bool
	// SuccessProb is the per-frame decode probability the erasure draw
	// was made against, exposed for calibration tests.
	SuccessProb float64
}

// DeliverVirtual propagates one frame at the frame fidelity tier: no
// waveform is synthesised; the calibrated per-frame decode probability
// of the native O-QPSK profile (fitted offline from the IQ tier by
// cmd/calibrate — see Channel and CalTable) is looked up and the outcome
// drawn deterministically from seed. The decision depends only on
// (link, frequencies, psduLen, seed) — never on the medium's shared
// random stream — so virtual deliveries are bit-identical at any event
// order, which is what the discrete-event simulator's determinism
// contract requires. Out-of-band transmissions are never delivered,
// mirroring Deliver's passband gate.
//
// DeliverVirtual is a convenience wrapper over
// Medium.Channel(FidelityFrame, ...) with the ProfileOQPSK calibration
// profile; callers that need a different profile or the symbol tier use
// Channel directly.
func (m *Medium) DeliverVirtual(psduLen int, txFreqMHz, rxFreqMHz float64, link Link, seed uint64) VirtualOutcome {
	out, err := m.virtualChannel().Deliver(FrameSpec{
		PSDULen:   psduLen,
		TxFreqMHz: txFreqMHz,
		RxFreqMHz: rxFreqMHz,
		Link:      link,
		Seed:      seed,
	})
	if err != nil {
		// Table bootstrap was vetted by virtualChannel; what is left
		// is a link no tier can simulate (Link.Validate), a caller bug.
		panic("radio: virtual delivery failed: " + err.Error())
	}
	return VirtualOutcome{InBand: out.InBand, Delivered: out.Delivered(), SuccessProb: out.SuccessProb}
}

// virtualChannel lazily builds the frame-tier channel DeliverVirtual
// runs on. The embedded calibration table is checked in and validated
// by tests, so a bootstrap failure here is a build defect, not a
// runtime condition — panic with the cause rather than grow an error
// return on every virtual delivery.
func (m *Medium) virtualChannel() Channel {
	m.virtualOnce.Do(func() {
		m.virtualCh, m.virtualErr = m.Channel(FidelityFrame, ChannelOptions{Profile: ProfileOQPSK})
	})
	if m.virtualErr != nil {
		panic("radio: embedded calibration table unusable: " + m.virtualErr.Error())
	}
	return m.virtualCh
}
