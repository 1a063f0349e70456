package ieee802154

import (
	"errors"
	"fmt"
	"math"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
	"wazabee/internal/dsp/stream"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// ErrNoSync is returned when the demodulator cannot find the preamble
// pattern in a capture — the "not received" class of Table III.
var ErrNoSync = errors.New("ieee802154: no preamble synchronisation")

// PHY is an O-QPSK (half-sine pulse shaping) physical layer instance at 2
// Mchip/s, the 2.4 GHz configuration of IEEE 802.15.4.
type PHY struct {
	// SamplesPerChip is the oversampling factor of the complex baseband
	// simulation (samples per chip period Tc = 0.5 µs).
	SamplesPerChip int

	// MaxSyncErrors is the number of tolerated bit errors when
	// correlating for the preamble (over a two-symbol, 63-transition
	// window). Hardware correlators typically tolerate a few.
	MaxSyncErrors int

	// MaxChipDistance is the despreading quality gate: when any symbol
	// decodes with a larger Hamming distance the receiver abandons the
	// frame (reported as ErrNoSync), the way correlation-threshold
	// receivers abort instead of delivering garbage. Differences in
	// this threshold are what make one chip report corrupted frames
	// where another reports losses in Table III.
	MaxChipDistance int

	// Obs receives the PHY's receive-side metrics (frames, sync and
	// despread failures, FCS pass/fail, chip-distance histogram, stage
	// timings); nil falls back to the process default registry.
	Obs *obs.Registry

	// Trace, when non-nil, records demod/despread spans per capture.
	Trace *obs.Trace

	// pulse caches the half-sine chip pulse at SamplesPerChip so the
	// modulator does not recompute (and reallocate) it per frame.
	pulse []float64
}

// NewPHY returns a PHY with the given oversampling factor.
func NewPHY(samplesPerChip int) (*PHY, error) {
	if samplesPerChip < 2 {
		return nil, fmt.Errorf("ieee802154: samples per chip %d < 2", samplesPerChip)
	}
	pulse, err := dsp.HalfSinePulse(samplesPerChip)
	if err != nil {
		return nil, err
	}
	return &PHY{SamplesPerChip: samplesPerChip, MaxSyncErrors: 6, MaxChipDistance: 15, pulse: pulse}, nil
}

// ModulateChips produces the O-QPSK half-sine complex baseband waveform of
// a chip stream: even-indexed chips shape the in-phase component, odd
// chips the quadrature component delayed by one chip period, each as a
// half-sine pulse spanning two chip periods (Figure 2 of the paper).
func (p *PHY) ModulateChips(chips bitstream.Bits) (dsp.IQ, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("ieee802154: empty chip stream")
	}
	sps := p.SamplesPerChip
	pulse := p.pulse
	if pulse == nil {
		// Zero-value PHY (no NewPHY): compute once and cache.
		var err error
		pulse, err = dsp.HalfSinePulse(sps)
		if err != nil {
			return nil, err
		}
		p.pulse = pulse
	}
	out := make(dsp.IQ, (len(chips)+1)*sps)
	for k, c := range chips {
		amp := float64(2*int(c) - 1)
		base := k * sps
		if k%2 == 0 {
			for j, pv := range pulse {
				out[base+j] += complex(amp*pv, 0)
			}
		} else {
			for j, pv := range pulse {
				out[base+j] += complex(0, amp*pv)
			}
		}
	}
	return out, nil
}

// Modulate spreads and modulates a PPDU into its on-air waveform.
func (p *PHY) Modulate(ppdu *PPDU) (dsp.IQ, error) {
	if ppdu == nil {
		return nil, fmt.Errorf("ieee802154: nil PPDU")
	}
	end := obs.Stage(obs.Or(p.Obs), p.Trace, "modulate")
	defer end()
	return p.ModulateChips(Spread(ppdu.Bytes()))
}

// Demodulated is the result of a successful frame capture.
type Demodulated struct {
	// PPDU is the recovered frame (FCS not yet verified).
	PPDU *PPDU
	// WorstChipDistance is the largest Hamming distance between any
	// received 31-transition block and its decoded PN sequence — a link
	// quality indicator.
	WorstChipDistance int
	// TotalChipDistance and SymbolCount accumulate the distances over
	// the whole frame; their ratio is a hard-decision quality summary.
	TotalChipDistance int
	SymbolCount       int
	// ChipDistHist is the per-symbol Hamming-distance histogram:
	// ChipDistHist[d] counts PHR/PSDU symbols that despread at distance
	// d (clamped at 16) — the soft evidence behind the link LQI.
	ChipDistHist [17]uint32
	// TransitionSpan is the number of transition periods from the sync
	// position to the end of the decoded frame.
	TransitionSpan int
	// SoftEVM is the RMS deviation of the per-chip phase accumulation
	// from the nominal ±π/2, after CFO compensation. A native O-QPSK
	// transmitter approaches zero on a clean channel; a diverted GFSK
	// transmitter keeps a floor from its Gaussian inter-symbol
	// interference — the modulation fingerprint the IDS countermeasure
	// of section VII thresholds. Only set by Demodulate (the bit-level
	// decoder has no access to soft values).
	SoftEVM float64
	// SyncErrors is the number of mismatched bits in the preamble
	// correlation window.
	SyncErrors int
	// SampleOffset is the recovered symbol timing phase (0 ≤ offset <
	// SamplesPerChip).
	SampleOffset int
	// CFOBias is the estimated carrier-frequency-offset contribution to
	// each per-chip phase accumulation, in radians.
	CFOBias float64
	// SyncCorr is the normalized soft correlation of the preamble sync
	// pattern (nominal 1.0). Only set by the demodulators.
	SyncCorr float64
	// Link carries the frame's full link-quality diagnostics (estimated
	// SNR, CFO in Hz, chip error rate, LQI). Populated by
	// DemodulateStats and core.Receiver.ReceiveStats.
	Link *link.Stats
}

// syncPattern returns the MSK transition pattern of two consecutive zero
// symbols — the stream a receiver sees during the all-zero preamble.
func syncPattern() bitstream.Bits {
	double := append(bitstream.Clone(pnTable[0]), pnTable[0]...)
	return ChipTransitions(double)
}

// preamblePattern is syncPattern computed once and shared read-only by
// every receiver.
var preamblePattern = syncPattern()

// Demodulate runs the noncoherent MSK-approximation receiver over a
// capture: frequency discrimination, symbol-timing search, preamble
// correlation, CFO compensation and minimum-distance despreading.
//
// The receiver treats the O-QPSK half-sine signal as MSK — the phase
// rotates ±π/2 per chip period — which is exactly the equivalence the
// WazaBee attack exploits; commercial 802.15.4 transceivers use the same
// simplification.
func (p *PHY) Demodulate(sig dsp.IQ) (*Demodulated, error) {
	dem, _, err := p.DemodulateStats(sig)
	return dem, err
}

// DemodulateStats runs the same receiver but additionally returns the
// frame's link-quality diagnostics. The stats are never nil: a capture
// that fails to sync, aborts mid-frame or trips the chip-distance
// quality gate still reports whatever evidence the receiver gathered
// before giving up (whole-capture RSSI at minimum), with LQI already
// finalized and the frame counted into the registry's link series.
func (p *PHY) DemodulateStats(sig dsp.IQ) (*Demodulated, *link.Stats, error) {
	reg := obs.Or(p.Obs)
	st := &link.Stats{RSSIdBFS: link.RSSIdBFS(sig)}
	defer func() {
		st.Finalize()
		link.Observe(reg, st, "decoder", "oqpsk")
	}()

	sps := p.SamplesPerChip
	if len(sig) < 4*ChipsPerSymbol*sps {
		reg.Counter("wazabee_sync_failures_total", "decoder", "oqpsk").Inc()
		return nil, st, ErrNoSync
	}
	endDemod := obs.Stage(reg, p.Trace, "demod")
	pattern := preamblePattern

	// Symbol-timing search: hard-correlate at every sampling phase
	// within the correlator's error budget, then rank qualifying
	// candidates by soft correlation so that only the phase with a
	// fully open eye wins (see ble.PHY.DemodulateFrame for the failure
	// modes either criterion alone has).
	pool := stream.Shared()
	corr := stream.Correlate(sig, pattern, p.MaxSyncErrors, sps)
	defer corr.Close()
	best, ok := corr.Best()
	if !ok {
		endDemod()
		reg.Counter("wazabee_sync_failures_total", "decoder", "oqpsk").Inc()
		return nil, st, ErrNoSync
	}
	bestPhase, bestPos, bestErrs := best.Phase, best.Pos, best.Errors
	reg.Histogram("wazabee_aa_pattern_errors", obs.LinearBuckets(0, 1, 9), "decoder", "oqpsk").
		Observe(float64(bestErrs))
	st.Synced = true
	st.SyncErrors = bestErrs
	st.SyncCorr = best.Score / (float64(len(pattern)) * math.Pi / 2)

	sums := corr.Sums(bestPhase)

	// CFO estimation over the sync window: the expected accumulation per
	// chip period is ±π/2; the mean residual is the CFO-induced bias.
	var bias float64
	for i, want := range pattern {
		expected := math.Pi / 2
		if want == 0 {
			expected = -expected
		}
		bias += sums[bestPos+i] - expected
	}
	bias /= float64(len(pattern))
	st.CFOHz = link.CFOFromBias(bias, ChipRate)

	bits := bitstream.Bits(pool.Bits(len(sums)))
	for _, s := range sums {
		var b byte
		if s-bias > 0 {
			b = 1
		}
		bits = append(bits, b)
	}
	defer pool.PutBits(bits)

	endDemod()
	endDespread := obs.Stage(reg, p.Trace, "despread")
	dem, err := DecodePPDUFromTransitions(bits, bestPos)
	endDespread()
	if err != nil {
		reg.Counter("wazabee_despread_failures_total", "decoder", "oqpsk").Inc()
		// Mid-frame abort: the frame span is unknown, so only the
		// sync-stage evidence is reportable.
		return nil, st, err
	}
	st.WorstChipDistance = dem.WorstChipDistance
	st.ChipErrors = dem.TotalChipDistance
	st.ChipsCompared = dem.SymbolCount * (ChipsPerSymbol - 1)
	st.DistHist = dem.ChipDistHist
	frameStart := bestPhase + bestPos*sps
	frameEnd := frameStart + dem.TransitionSpan*sps
	if rssi, noise, snr, ok := link.Measure(sig, frameStart, frameEnd, sps); ok {
		st.RSSIdBFS, st.NoisedBFS, st.SNRdB, st.SNRValid = rssi, noise, snr, true
	} else {
		st.RSSIdBFS = rssi
	}
	reg.Histogram("wazabee_worst_chip_distance", obs.DistanceBuckets, "decoder", "oqpsk").
		Observe(float64(dem.WorstChipDistance))
	if p.MaxChipDistance > 0 && dem.WorstChipDistance > p.MaxChipDistance {
		reg.Counter("wazabee_quality_gate_drops_total", "decoder", "oqpsk").Inc()
		st.Gated = true
		return nil, st, ErrNoSync
	}
	st.Decoded = true
	dem.SyncErrors = bestErrs
	dem.SampleOffset = bestPhase
	dem.CFOBias = bias
	dem.SyncCorr = st.SyncCorr
	dem.Link = st

	// Modulation fingerprint: RMS deviation of the CFO-compensated
	// per-chip phase steps from ±π/2 over the decoded frame span.
	var dev float64
	n := 0
	for i := bestPos; i < bestPos+dem.TransitionSpan && i < len(sums); i++ {
		v := sums[i] - bias
		d := v - math.Pi/2
		if v < 0 {
			d = v + math.Pi/2
		}
		dev += d * d
		n++
	}
	if n > 0 {
		dem.SoftEVM = math.Sqrt(dev / float64(n))
	}
	reg.Counter("wazabee_frames_received_total", "decoder", "oqpsk").Inc()
	result := "pass"
	st.FCSOK = bitstream.CheckFCS(dem.PPDU.PSDU)
	if !st.FCSOK {
		result = "fail"
	}
	reg.Counter("wazabee_crc_checks_total", "decoder", "oqpsk", "result", result).Inc()
	return dem, st, nil
}

// DecodePPDUFromTransitions walks a hard-decision MSK transition stream
// starting at the beginning of a preamble symbol, locates the SFD and
// decodes the PPDU by minimum-distance despreading of 31-transition
// blocks (one boundary transition between blocks is skipped). pos indexes
// the transition effected by chip 1 of a preamble symbol — the position a
// correlator locks to.
//
// Both the legitimate O-QPSK receiver and the WazaBee BLE receiver reduce
// to this decoder; that shared structure is the equivalence the paper
// demonstrates.
func DecodePPDUFromTransitions(bits bitstream.Bits, pos int) (*Demodulated, error) {
	symbolAt := func(n int) (sym, dist int, ok bool) {
		start := pos + n*ChipsPerSymbol
		if start+ChipsPerSymbol-1 > len(bits) {
			return 0, 0, false
		}
		block := bits[start : start+ChipsPerSymbol-1]
		s, d, err := closestSymbolByTransitions(block)
		if err != nil {
			return 0, 0, false
		}
		return s, d, true
	}

	// Scan for the SFD symbol pair (0x7 then 0xA, low nibble first)
	// within the window the preamble length allows.
	const maxPreambleSymbols = PreambleLength*SymbolsPerByte + 2
	sfdAt := -1
	for n := 0; n < maxPreambleSymbols; n++ {
		s1, _, ok1 := symbolAt(n)
		s2, _, ok2 := symbolAt(n + 1)
		if !ok1 || !ok2 {
			return nil, ErrNoSync
		}
		if s1 == int(SFD&0x0f) && s2 == int(SFD>>4) {
			sfdAt = n
			break
		}
	}
	if sfdAt < 0 {
		return nil, ErrNoSync
	}

	worst, total, count := 0, 0, 0
	var hist [17]uint32
	record := func(d int) {
		if d > worst {
			worst = d
		}
		total += d
		count++
		if d > 16 {
			d = 16
		}
		hist[d]++
	}
	readByte := func(n int) (byte, bool) {
		lo, d1, ok1 := symbolAt(n)
		hi, d2, ok2 := symbolAt(n + 1)
		if !ok1 || !ok2 {
			return 0, false
		}
		record(d1)
		record(d2)
		return byte(lo) | byte(hi)<<4, true
	}

	phr, ok := readByte(sfdAt + 2)
	if !ok || int(phr) > MaxPSDULength {
		return nil, ErrNoSync
	}
	psdu := make([]byte, 0, phr)
	for i := 0; i < int(phr); i++ {
		b, ok := readByte(sfdAt + 4 + 2*i)
		if !ok {
			return nil, ErrNoSync
		}
		psdu = append(psdu, b)
	}
	ppdu, err := NewPPDU(psdu)
	if err != nil {
		return nil, err
	}
	return &Demodulated{
		PPDU:              ppdu,
		WorstChipDistance: worst,
		TotalChipDistance: total,
		SymbolCount:       count,
		ChipDistHist:      hist,
		TransitionSpan:    (sfdAt + 4 + 2*int(phr)) * ChipsPerSymbol,
	}, nil
}

// MeanChipDistance returns the average per-symbol despreading distance,
// or zero for an empty frame.
func (d *Demodulated) MeanChipDistance() float64 {
	if d.SymbolCount == 0 {
		return 0
	}
	return float64(d.TotalChipDistance) / float64(d.SymbolCount)
}

// transitionTable caches the 31-bit MSK transition encoding of each PN
// sequence, the alphabet of the MSK-view despreader.
var transitionTable = buildTransitionTable()

func buildTransitionTable() [16]bitstream.Bits {
	var out [16]bitstream.Bits
	for s := range pnTable {
		out[s] = ChipTransitions(pnTable[s])
	}
	return out
}

// closestSymbolByTransitions despreads a 31-bit transition block by
// minimum Hamming distance over the 16 MSK-encoded PN sequences.
func closestSymbolByTransitions(block bitstream.Bits) (symbol, distance int, err error) {
	if len(block) != ChipsPerSymbol-1 {
		return 0, 0, fmt.Errorf("ieee802154: transition block length %d, want %d", len(block), ChipsPerSymbol-1)
	}
	bestSym, bestDist := 0, ChipsPerSymbol
	for s := 0; s < 16; s++ {
		d, derr := bitstream.HammingDistance(block, transitionTable[s])
		if derr != nil {
			return 0, 0, derr
		}
		if d < bestDist {
			bestDist = d
			bestSym = s
		}
	}
	return bestSym, bestDist, nil
}

// TransitionAlphabet returns a copy of the 31-bit MSK transition encoding
// of each PN sequence, indexed by symbol.
func TransitionAlphabet() [16]bitstream.Bits {
	var out [16]bitstream.Bits
	for i := range transitionTable {
		out[i] = bitstream.Clone(transitionTable[i])
	}
	return out
}
