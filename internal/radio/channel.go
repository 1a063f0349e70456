package radio

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"wazabee/internal/bitstream"
	"wazabee/internal/dsp"
	"wazabee/internal/dsp/stream"
	"wazabee/internal/ieee802154"
	"wazabee/internal/randsrc"
)

// Fidelity selects how much physics a Channel simulates per frame.
//
// The tiers trade accuracy for throughput:
//
//   - FidelityIQ synthesises the complex-baseband waveform, runs it
//     through the medium (noise, CFO, WiFi bursts) and demodulates it
//     with the real DSP chain. Ground truth; ~ms per frame.
//   - FidelitySymbol skips IQ entirely: a calibrated table maps the
//     operating point (SNR, |CFO|, WiFi overlap) to per-symbol chip-error
//     distributions, chip errors are drawn per symbol and pushed through
//     the real minimum-distance despreader decision logic. Per-symbol
//     outcomes, corrupted-frame bytes and quality-gate statistics agree
//     with the IQ tier within calibration error at a small fraction of
//     the cost.
//   - FidelityFrame collapses the symbol tier to a closed-form per-frame
//     success probability and one uniform draw — the mesh simulator's
//     erasure model; ~ns per frame.
//
// The zero value means "unset": each subsystem picks its own default
// (experiments default to IQ, the mesh simulator to frame).
type Fidelity int

const (
	// FidelityIQ is full waveform synthesis and demodulation.
	FidelityIQ Fidelity = iota + 1
	// FidelitySymbol draws calibrated per-symbol chip errors through the
	// real despreader.
	FidelitySymbol
	// FidelityFrame draws one calibrated per-frame erasure decision.
	FidelityFrame
)

// String returns the flag spelling of the tier.
func (f Fidelity) String() string {
	switch f {
	case FidelityIQ:
		return "iq"
	case FidelitySymbol:
		return "symbol"
	case FidelityFrame:
		return "frame"
	default:
		return fmt.Sprintf("fidelity(%d)", int(f))
	}
}

// ParseFidelity parses a -fidelity flag value.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "iq":
		return FidelityIQ, nil
	case "symbol":
		return FidelitySymbol, nil
	case "frame":
		return FidelityFrame, nil
	default:
		return 0, fmt.Errorf("radio: unknown fidelity %q (want iq, symbol or frame)", s)
	}
}

// FrameSpec describes one frame delivery, independent of fidelity tier.
type FrameSpec struct {
	// PSDU is the transmitted MAC frame (FCS included). The symbol tier
	// despreads it symbol by symbol; the frame tier echoes it back on
	// success. May be nil for erasure-only callers, in which case PSDULen
	// supplies the length (the symbol tier then models an all-zero
	// payload, which leaves error statistics unchanged — the despreading
	// distance distribution does not depend on which codeword was sent).
	PSDU []byte
	// PSDULen is the frame length in octets when PSDU is nil.
	PSDULen int
	// TxFreqMHz and RxFreqMHz are the carrier frequencies of the two
	// ends; the same passband gate as Medium.Deliver applies.
	TxFreqMHz, RxFreqMHz float64
	// Link is the propagation between the two radios.
	Link Link
	// Seed drives every random decision of the symbol and frame tiers.
	// Those tiers never touch the medium's shared Rand, so deliveries
	// with private seeds are safe from concurrent goroutines and
	// bit-identical at any event order. The IQ tier ignores Seed and
	// draws from the medium's stream (single-goroutine contract on
	// Medium.Rand).
	Seed uint64
}

// psduLen returns the frame length in octets, PSDU's when it is set,
// and rejects a length no PHR can carry.
func (s *FrameSpec) psduLen() (int, error) {
	n := s.PSDULen
	if s.PSDU != nil {
		n = len(s.PSDU)
	}
	if n < 0 || n > ieee802154.MaxPSDULength {
		return 0, fmt.Errorf("radio: PSDU length %d out of [0,%d]", n, ieee802154.MaxPSDULength)
	}
	return n, nil
}

// FrameOutcome is the tier-independent result of one frame delivery.
type FrameOutcome struct {
	// InBand reports that the transmission landed within one channel
	// width of the receiver's tuning.
	InBand bool
	// PSDU is what the receiver decoded (nil when nothing was received,
	// or when a frame-tier delivery had no PSDU to echo).
	PSDU []byte
	// DecodeErr is the receiver-side error, when the frame produced no
	// PSDU at all: ieee802154.ErrNoSync for sync failures, quality-gate
	// drops and frame-tier erasures; other errors only on the IQ tier.
	DecodeErr error
	// Valid reports that the decoded PSDU carries a good FCS and matches
	// the transmitted frame byte for byte.
	Valid bool
	// SuccessProb is the closed-form decode probability the erasure draw
	// was made against (frame tier only; zero elsewhere).
	SuccessProb float64
	// ChipErrors is the total number of chip errors drawn across the
	// frame's symbols (symbol tier only; zero elsewhere).
	ChipErrors int
}

// Received reports that the receiver produced a PSDU (possibly corrupt).
func (o FrameOutcome) Received() bool {
	return o.InBand && o.DecodeErr == nil
}

// Delivered reports that the frame arrived intact.
func (o FrameOutcome) Delivered() bool {
	return o.Received() && o.Valid
}

// Channel delivers frames at one fidelity tier. Implementations are
// obtained from Medium.Channel and share that medium's interferers and
// observability; the symbol and frame tiers are safe for concurrent use
// (seed-parameterised), the IQ tier inherits Medium.Deliver's
// single-goroutine contract.
type Channel interface {
	// Fidelity identifies the tier this channel simulates at.
	Fidelity() Fidelity
	// Deliver propagates one frame. The error return is for hard
	// failures (modulation errors, invalid specs); receiver-side decode
	// failures land in FrameOutcome.DecodeErr instead.
	Deliver(spec FrameSpec) (FrameOutcome, error)
}

// IQEndpoints supplies the modem pair of an IQ-tier channel: how the
// transmitter turns a PSDU into a waveform and how the receiver turns
// the delivered capture back into a PSDU. Keeping these as closures lets
// one Channel interface cover every modem combination in the tree
// (Zigbee PHY both ways, WazaBee BLE-diverted reception/transmission)
// without the radio package importing the chip or core layers.
//
// The capture handed to Demodulate lives in a pooled slab that the
// channel reuses as soon as Demodulate returns: Demodulate must not
// retain it, or any slice of it, past its return.
type IQEndpoints struct {
	// Modulate returns the frame's waveform, which the channel only
	// reads (dsp.IQ.MixAdd reads the burst and writes the capture). So
	// Modulate may return one waveform to many deliveries, concurrent
	// ones included: the experiments share one per counter frame
	// across a run's trials.
	Modulate   func(psdu []byte) (dsp.IQ, error)
	Demodulate func(capture dsp.IQ) ([]byte, error)
}

// ChannelOptions configures Medium.Channel.
type ChannelOptions struct {
	// Profile names the calibration profile backing the symbol and frame
	// tiers (e.g. "nRF52832/reception"); empty means ProfileOQPSK.
	Profile string
	// Endpoints supplies the modem pair; required for FidelityIQ,
	// ignored otherwise.
	Endpoints *IQEndpoints
}

// Channel returns a frame-delivery channel over this medium at the given
// fidelity tier.
func (m *Medium) Channel(f Fidelity, opts ChannelOptions) (Channel, error) {
	switch f {
	case FidelityIQ:
		if opts.Endpoints == nil || opts.Endpoints.Modulate == nil || opts.Endpoints.Demodulate == nil {
			return nil, fmt.Errorf("radio: FidelityIQ requires ChannelOptions.Endpoints")
		}
		return &iqChannel{m: m, ep: *opts.Endpoints}, nil
	case FidelitySymbol, FidelityFrame:
		table, err := DefaultCalTable()
		if err != nil {
			return nil, err
		}
		name := opts.Profile
		if name == "" {
			name = ProfileOQPSK
		}
		prof, err := table.Profile(name)
		if err != nil {
			return nil, err
		}
		if f == FidelitySymbol {
			return &symbolChannel{m: m, prof: prof}, nil
		}
		return &frameChannel{m: m, prof: prof}, nil
	default:
		return nil, fmt.Errorf("radio: unknown fidelity %v", f)
	}
}

// wifiWeight collapses the medium's interferers into the scalar the
// calibration grid is indexed by: spectral overlap at the receiver's
// tuning, scaled by how much busier/louder each network is than the
// calibration reference and attenuated by the receiver's blocking
// performance. Zero means a clean channel.
func (m *Medium) wifiWeight(rxFreqMHz, rejectionDB float64) float64 {
	const refDuty, refPower = 0.005, 6.0
	w := 0.0
	for _, itf := range m.interferers {
		w += itf.Overlap(rxFreqMHz) * (itf.DutyCycle / refDuty) * (itf.Power / refPower)
	}
	return w * math.Pow(10, -rejectionDB/10)
}

// passband applies Medium.Deliver's channel gate: transmissions two or
// more channel widths away never reach the receiver; one to two widths
// away arrive through the adjacent-channel skirt.
func passband(txFreqMHz, rxFreqMHz float64) (inBand, adjacent bool) {
	sep := txFreqMHz - rxFreqMHz
	if sep < 0 {
		sep = -sep
	}
	return sep < 2, sep >= 1 && sep < 2
}

// seedStream is a SplitMix64 sequence generator: the per-delivery random
// stream of the symbol and frame tiers. Its first float64 equals the
// single finaliser draw the frame tier historically made, and it is
// cheap enough to sit in the per-symbol hot loop.
type seedStream struct{ state uint64 }

func (s *seedStream) next() uint64 {
	z := randsrc.SplitMix64(s.state)
	s.state += 0x9e3779b97f4a7c15
	return z
}

func (s *seedStream) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

func (s *seedStream) intn(n int) int {
	// Modulo bias over a 64-bit draw is negligible at n <= 32.
	return int(s.next() % uint64(n))
}

// drawDist samples a despreading distance from a calibrated cell.
func drawDist(rng *seedStream, dist *[17]float64) int {
	u := rng.float64()
	acc := 0.0
	for k, p := range dist {
		acc += p
		if u < acc {
			return k
		}
	}
	return len(dist) - 1
}

// iqChannel is the ground-truth tier: full waveform synthesis through
// Medium.Deliver and real demodulation.
type iqChannel struct {
	m  *Medium
	ep IQEndpoints
}

func (c *iqChannel) Fidelity() Fidelity { return FidelityIQ }

func (c *iqChannel) Deliver(spec FrameSpec) (FrameOutcome, error) {
	if spec.PSDU == nil {
		return FrameOutcome{}, fmt.Errorf("radio: FidelityIQ requires FrameSpec.PSDU (cannot modulate a length)")
	}
	sig, err := c.ep.Modulate(spec.PSDU)
	if err != nil {
		return FrameOutcome{}, fmt.Errorf("radio: modulate: %w", err)
	}
	pool := stream.Shared()
	capture := pool.IQ(max(spec.Link.LeadSamples+len(sig)+spec.Link.LagSamples, 0))
	capture, err = c.m.deliverInto(capture, sig, spec.TxFreqMHz, spec.RxFreqMHz, spec.Link)
	if err != nil {
		return FrameOutcome{}, err
	}
	inBand, _ := passband(spec.TxFreqMHz, spec.RxFreqMHz)
	out := FrameOutcome{InBand: inBand}
	psdu, derr := c.ep.Demodulate(capture)
	pool.PutIQ(capture)
	if derr != nil {
		out.DecodeErr = derr
		return out, nil
	}
	out.PSDU = psdu
	out.Valid = bitstream.CheckFCS(psdu) && bytes.Equal(psdu, spec.PSDU)
	return out, nil
}

// symbolChannel is the calibrated middle tier: chip errors are drawn per
// symbol from the profile's distance distribution and decided by the
// real minimum-distance despreader. Because the 802.15.4 PN codewords
// sit at least 12 chips apart, up to 5 chip errors always decode
// correctly without consulting the despreader at all; only heavier hits
// pay for a nearest-codeword search over actually-flipped chips.
type symbolChannel struct {
	m    *Medium
	prof *CalProfile
}

func (c *symbolChannel) Fidelity() Fidelity { return FidelitySymbol }

func (c *symbolChannel) Deliver(spec FrameSpec) (FrameOutcome, error) {
	if err := spec.Link.Validate(); err != nil {
		return FrameOutcome{}, err
	}
	inBand, adjacent := passband(spec.TxFreqMHz, spec.RxFreqMHz)
	if !inBand {
		c.m.count(ctrSymbolOutOfBand)
		return FrameOutcome{}, nil
	}
	psduLen, err := spec.psduLen()
	if err != nil {
		return FrameOutcome{}, err
	}

	eff := spec.Link.SNRdB
	if adjacent {
		eff -= 20 // Deliver's 0.1 amplitude scale on the adjacent-channel skirt
	}
	cell := c.prof.Lookup(eff, spec.Link.CFOHz, c.m.wifiWeight(spec.RxFreqMHz, spec.Link.InterferenceRejectionDB))

	rng := seedStream{state: spec.Seed}
	out := FrameOutcome{InBand: true}
	if rng.float64() < cell.SyncFail {
		// Sync failure, mid-frame abort or quality-gate drop: the
		// receiver hands back nothing. The calibration pass folds all
		// three into SyncFail, so the gate is not re-applied here.
		out.DecodeErr = ieee802154.ErrNoSync
		c.m.count(ctrSymbolErased)
		return out, nil
	}

	decodeSym := func(txSym int) (int, error) {
		k := drawDist(&rng, &cell.Dist)
		out.ChipErrors += k
		if k <= 5 {
			return txSym, nil
		}
		chips, err := ieee802154.PNSequence(txSym)
		if err != nil {
			return 0, err
		}
		// Flip k distinct chips via a partial Fisher-Yates shuffle.
		var idx [32]int
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k && i < len(idx); i++ {
			j := i + rng.intn(len(idx)-i)
			idx[i], idx[j] = idx[j], idx[i]
			chips[idx[i]] ^= 1
		}
		got, _, err := ieee802154.ClosestSymbol(chips)
		return got, err
	}

	// PHR first: a mis-despread length field derails the whole frame
	// (the receiver reads the wrong number of octets), which the IQ
	// chain reports as a decode failure, not a corrupted PSDU.
	phr := psduLen & 0x7F
	for _, txSym := range [2]int{phr & 0x0F, phr >> 4} {
		got, err := decodeSym(txSym)
		if err != nil {
			return FrameOutcome{}, err
		}
		if got != txSym {
			out.DecodeErr = ieee802154.ErrNoSync
			c.m.count(ctrSymbolErased)
			return out, nil
		}
	}

	clean := true
	decoded := make([]byte, psduLen)
	for i := range decoded {
		var txb byte
		if spec.PSDU != nil {
			txb = spec.PSDU[i]
		}
		lo, err := decodeSym(int(txb & 0x0F))
		if err != nil {
			return FrameOutcome{}, err
		}
		hi, err := decodeSym(int(txb >> 4))
		if err != nil {
			return FrameOutcome{}, err
		}
		decoded[i] = byte(lo) | byte(hi)<<4
		if decoded[i] != txb {
			clean = false
		}
	}
	out.PSDU = decoded
	if spec.PSDU != nil {
		out.Valid = clean && bitstream.CheckFCS(decoded)
	} else {
		out.Valid = clean
	}
	c.m.count(ctrSymbolInBand)
	if !out.Valid {
		c.m.count(ctrSymbolErased)
	}
	return out, nil
}

// frameChannel is the cheapest tier: the symbol tier's statistics are
// collapsed to one closed-form per-frame success probability and a
// single uniform draw. It is what the mesh simulator's erasure model
// runs on.
type frameChannel struct {
	m    *Medium
	prof *CalProfile

	// memo holds the last operating point's two factors and the success
	// probabilities already computed from them, by PSDU length. A mesh
	// delivers millions of frames at one or a few operating points, but
	// acks alternate with longer frames, so the length cannot be part of
	// a one-entry key: the factors are kept per operating point and the
	// probabilities per length.
	mu   sync.Mutex
	memo struct {
		valid          bool
		eff, cfo, wifi float64
		syncOK, symOK  float64 // 1−SyncFail and P[symbol decodes]
		known          [ieee802154.MaxPSDULength + 1]bool
		prob           [ieee802154.MaxPSDULength + 1]float64
	}
}

func (c *frameChannel) Fidelity() Fidelity { return FidelityFrame }

// successProb computes P[frame decodes] at an operating point: the
// calibrated sync-success probability times the per-symbol decode
// probability raised to the frame's symbol count (PHR + PSDU at two
// symbols per octet). psduLen must lie in [0, MaxPSDULength].
func (c *frameChannel) successProb(eff, cfo, wifi float64, psduLen int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &c.memo
	if !m.valid || m.eff != eff || m.cfo != cfo || m.wifi != wifi {
		cell := c.prof.Lookup(eff, cfo, wifi)
		s := 0.0
		for k, p := range cell.Dist {
			s += float64(p * symbolCorrectProb[k]) // rounded: never a fused multiply-add
		}
		m.eff, m.cfo, m.wifi, m.syncOK, m.symOK, m.valid = eff, cfo, wifi, 1-cell.SyncFail, s, true
		m.known = [len(m.known)]bool{}
	}
	if !m.known[psduLen] {
		symbols := 2 * (psduLen + 1)
		m.prob[psduLen] = m.syncOK * math.Pow(m.symOK, float64(symbols))
		m.known[psduLen] = true
	}
	return m.prob[psduLen]
}

func (c *frameChannel) Deliver(spec FrameSpec) (FrameOutcome, error) {
	if err := spec.Link.Validate(); err != nil {
		return FrameOutcome{}, err
	}
	inBand, adjacent := passband(spec.TxFreqMHz, spec.RxFreqMHz)
	if !inBand {
		c.m.count(ctrVirtualOutOfBand)
		return FrameOutcome{}, nil
	}
	psduLen, err := spec.psduLen()
	if err != nil {
		return FrameOutcome{}, err
	}
	eff := spec.Link.SNRdB
	if adjacent {
		eff -= 20
	}
	prob := c.successProb(eff, math.Abs(spec.Link.CFOHz),
		c.m.wifiWeight(spec.RxFreqMHz, spec.Link.InterferenceRejectionDB), psduLen)

	rng := seedStream{state: spec.Seed}
	out := FrameOutcome{InBand: true, SuccessProb: prob}
	if rng.float64() < prob {
		out.Valid = true
		out.PSDU = spec.PSDU
		c.m.count(ctrVirtualInBand)
	} else {
		// At frame granularity an erasure is indistinguishable from a
		// sync failure: nothing reaches the MAC.
		out.DecodeErr = ieee802154.ErrNoSync
		c.m.count(ctrVirtualErased)
	}
	return out, nil
}

// tierCounter is one medium counter the symbol or frame tier bumps per
// frame.
type tierCounter uint8

const (
	ctrSymbolOutOfBand tierCounter = iota
	ctrSymbolInBand
	ctrSymbolErased
	ctrVirtualOutOfBand
	ctrVirtualInBand
	ctrVirtualErased
	numTierCounters
)

// tierCounterSeries is each tierCounter's metric name and label pairs.
var tierCounterSeries = [numTierCounters][]string{
	ctrSymbolOutOfBand:  {"wazabee_medium_bursts_total", "path", "symbol_out_of_band"},
	ctrSymbolInBand:     {"wazabee_medium_bursts_total", "path", "symbol_in_band"},
	ctrSymbolErased:     {"wazabee_medium_symbol_erased_total"},
	ctrVirtualOutOfBand: {"wazabee_medium_bursts_total", "path", "virtual_out_of_band"},
	ctrVirtualInBand:    {"wazabee_medium_bursts_total", "path", "virtual_in_band"},
	ctrVirtualErased:    {"wazabee_medium_virtual_erased_total"},
}

// count increments one tier counter on the medium's registry, through
// the medium's per-registry cache (see obs.CounterCache). A medium with
// no registry counts its calibrated-tier deliveries nowhere: unlike the
// IQ path it does not fall back to the process default, so parallel
// mesh trials share no counter.
func (m *Medium) count(which tierCounter) {
	if m.Obs == nil {
		return
	}
	m.tierCtrs.Counter(m.Obs, tierCounterSeries[:], int(which)).Inc()
}

// SymbolCorrectProb returns P[symbol decodes correctly | k chip errors],
// the per-distance decode probability the frame tier folds the
// calibrated distance distribution through. Out-of-range k clamps.
// Exported for the calibration fitter, which needs the same functional
// to keep fitted tables monotone in SNR.
func SymbolCorrectProb(k int) float64 {
	if k < 0 {
		k = 0
	}
	if k > 16 {
		k = 16
	}
	return symbolCorrectProb[k]
}

// symbolCorrectTrials is the per-k trial count of the Monte-Carlo that
// measured symbolCorrectProb (a float constant, so hits/trials divides
// exactly instead of truncating).
const symbolCorrectTrials = 4096.0

// symbolCorrectProb is P[symbol decodes correctly | k chip errors] for
// k = 0..16, as hits out of symbolCorrectTrials. Up to 5 errors always
// decode (the PN codewords are at least 12 chips apart); heavier hits
// were measured by a fixed-seed Monte-Carlo through the real despreader,
// which TestSymbolCorrectProbMatchesMonteCarlo reruns and must reproduce
// hit for hit, so the frame tier stays consistent with the symbol tier's
// decision logic.
var symbolCorrectProb = [17]float64{
	4096 / symbolCorrectTrials, 4096 / symbolCorrectTrials, 4096 / symbolCorrectTrials,
	4096 / symbolCorrectTrials, 4096 / symbolCorrectTrials, 4096 / symbolCorrectTrials,
	4089 / symbolCorrectTrials, 4066 / symbolCorrectTrials, 3975 / symbolCorrectTrials,
	3728 / symbolCorrectTrials, 3209 / symbolCorrectTrials, 2346 / symbolCorrectTrials,
	1223 / symbolCorrectTrials, 339 / symbolCorrectTrials, 43 / symbolCorrectTrials,
	2 / symbolCorrectTrials, 0 / symbolCorrectTrials,
}
