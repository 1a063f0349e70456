package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

func TestConvertPNSequenceLength(t *testing.T) {
	pn, err := ieee802154.PNSequence(0)
	if err != nil {
		t.Fatal(err)
	}
	msk, err := ConvertPNSequence(pn)
	if err != nil {
		t.Fatal(err)
	}
	if len(msk) != 31 {
		t.Errorf("MSK length = %d, want 31 (n-1 for n chips)", len(msk))
	}
	if _, err := ConvertPNSequence(pn[:31]); err == nil {
		t.Error("expected error for short sequence")
	}
}

func TestAlgorithm1MatchesPhysicalTransitions(t *testing.T) {
	// The central correctness claim: the paper's state-machine encoding
	// (Algorithm 1) equals the physically derived chip-transition
	// closed form for every PN sequence.
	for s := 0; s < 16; s++ {
		pn, err := ieee802154.PNSequence(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ConvertPNSequence(pn)
		if err != nil {
			t.Fatal(err)
		}
		want := ieee802154.ChipTransitions(pn)
		if got.String() != want.String() {
			t.Errorf("symbol %d: Algorithm 1 = %s, physical transitions = %s", s, got, want)
		}
	}
}

func TestConvertChipStreamMatchesTransitionsProperty(t *testing.T) {
	// Property: for any chip stream, the whole-stream Algorithm 1
	// generalisation equals the physical transition encoding.
	f := func(seed int64, nSymbols uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 2 + int(nSymbols%16)*ieee802154.ChipsPerSymbol
		chips := make(bitstream.Bits, n)
		for i := range chips {
			chips[i] = byte(rnd.Intn(2))
		}
		got, err := ConvertChipStream(chips)
		if err != nil {
			return false
		}
		return got.String() == ieee802154.ChipTransitions(chips).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvertChipStreamShort(t *testing.T) {
	if _, err := ConvertChipStream(bitstream.Bits{1}); err == nil {
		t.Error("expected error for single chip")
	}
}

func TestCorrespondenceTable(t *testing.T) {
	table, err := CorrespondenceTable()
	if err != nil {
		t.Fatal(err)
	}
	alpha := ieee802154.TransitionAlphabet()
	for s := 0; s < 16; s++ {
		if table[s].Symbol != s {
			t.Errorf("row %d has symbol %d", s, table[s].Symbol)
		}
		if len(table[s].PN) != 32 || len(table[s].MSK) != 31 {
			t.Errorf("row %d has lengths %d/%d", s, len(table[s].PN), len(table[s].MSK))
		}
		if table[s].MSK.String() != alpha[s].String() {
			t.Errorf("row %d MSK mismatch with receiver alphabet", s)
		}
	}
	// All MSK rows distinct (the receiver's decodability requirement).
	seen := make(map[string]int, 16)
	for s := 0; s < 16; s++ {
		key := table[s].MSK.String()
		if prev, dup := seen[key]; dup {
			t.Errorf("symbols %d and %d share an MSK encoding", prev, s)
		}
		seen[key] = s
	}
}

func TestAccessPatternProperties(t *testing.T) {
	pat := AccessPattern()
	if len(pat) != 32 {
		t.Fatalf("access pattern length = %d, want 32", len(pat))
	}
	// The first 31 bits are the MSK encoding of the 0000 symbol.
	table, err := CorrespondenceTable()
	if err != nil {
		t.Fatal(err)
	}
	if pat[:31].String() != table[0].MSK.String() {
		t.Error("access pattern does not start with MSK(PN0)")
	}
	// Packing into a register and unpacking round-trips.
	aa := AccessAddress()
	if bitstream.Uint32ToBits(aa).String() != pat.String() {
		t.Error("AccessAddress does not pack AccessPattern")
	}
}

func TestCommonChannelsTableII(t *testing.T) {
	want := []ChannelMapping{
		{Zigbee: 12, BLE: 3, FrequencyMHz: 2410},
		{Zigbee: 14, BLE: 8, FrequencyMHz: 2420},
		{Zigbee: 16, BLE: 12, FrequencyMHz: 2430},
		{Zigbee: 18, BLE: 17, FrequencyMHz: 2440},
		{Zigbee: 20, BLE: 22, FrequencyMHz: 2450},
		{Zigbee: 22, BLE: 27, FrequencyMHz: 2460},
		{Zigbee: 24, BLE: 32, FrequencyMHz: 2470},
		{Zigbee: 26, BLE: 39, FrequencyMHz: 2480},
	}
	got := CommonChannels()
	if len(got) != len(want) {
		t.Fatalf("CommonChannels returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBLEChannelFor(t *testing.T) {
	ch, err := BLEChannelFor(14)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 8 {
		t.Errorf("BLEChannelFor(14) = %d, want 8", ch)
	}
	if _, err := BLEChannelFor(13); err == nil {
		t.Error("expected error for Zigbee channel 13 (2415 MHz, between BLE channels)")
	}
	if _, err := BLEChannelFor(9); err == nil {
		t.Error("expected error for invalid Zigbee channel")
	}
}

func blePHY(t *testing.T, mode ble.Mode) *ble.PHY {
	t.Helper()
	phy, err := ble.NewPHY(mode, 8)
	if err != nil {
		t.Fatal(err)
	}
	return phy
}

func zigbeePHY(t *testing.T) *ieee802154.PHY {
	t.Helper()
	phy, err := ieee802154.NewPHY(8)
	if err != nil {
		t.Fatal(err)
	}
	return phy
}

func testPSDU(t *testing.T, payload []byte) []byte {
	t.Helper()
	fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
	return append(append([]byte{}, payload...), fcs[0], fcs[1])
}

func TestNewTransmitterReceiverModeValidation(t *testing.T) {
	if _, err := NewTransmitter(blePHY(t, ble.LE1M)); err == nil {
		t.Error("LE 1M transmitter must be rejected (data-rate requirement)")
	}
	if _, err := NewReceiver(blePHY(t, ble.LE1M)); err == nil {
		t.Error("LE 1M receiver must be rejected")
	}
	if _, err := NewTransmitter(nil); err == nil {
		t.Error("nil PHY must be rejected")
	}
	if _, err := NewReceiver(nil); err == nil {
		t.Error("nil PHY must be rejected")
	}
	if _, err := NewTransmitter(blePHY(t, ble.ESB2M)); err != nil {
		t.Error("ESB 2M must be accepted (scenario B fallback)")
	}
}

// TestWazaBeeTXToZigbeeRX is the transmission primitive end-to-end: a BLE
// chip's GFSK waveform decoded by a legitimate 802.15.4 receiver.
func TestWazaBeeTXToZigbeeRX(t *testing.T) {
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, []byte{0x41, 0x88, 0x2a, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x07})
	sig, err := tx.ModulatePSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(200, 200)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := zigbeePHY(t).Demodulate(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dem.PPDU.PSDU, psdu) {
		t.Errorf("PSDU = % x, want % x", dem.PPDU.PSDU, psdu)
	}
	if !bitstream.CheckFCS(dem.PPDU.PSDU) {
		t.Error("FCS does not verify")
	}
	// The Gaussian filter introduces only small chip distances.
	if dem.WorstChipDistance > 6 {
		t.Errorf("worst chip distance = %d, Gaussian approximation worse than expected", dem.WorstChipDistance)
	}
}

// TestZigbeeTXToWazaBeeRX is the reception primitive end-to-end: a real
// O-QPSK waveform captured by a diverted BLE receiver.
func TestZigbeeTXToWazaBeeRX(t *testing.T) {
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := zigbeePHY(t).Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(150, 150)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := rx.Receive(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dem.PPDU.PSDU, psdu) {
		t.Errorf("PSDU = % x, want % x", dem.PPDU.PSDU, psdu)
	}
}

// TestWazaBeeLoopback runs both primitives back to back: two diverted BLE
// chips talking 802.15.4 to each other.
func TestWazaBeeLoopback(t *testing.T) {
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, []byte{0xca, 0xfe, 0xba, 0xbe})
	sig, err := tx.ModulatePSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := rx.Receive(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dem.PPDU.PSDU, psdu) {
		t.Error("loopback PSDU mismatch")
	}
}

func TestReceiverNoFrame(t *testing.T) {
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rx.Receive(nil)
	if !errors.Is(err, ieee802154.ErrNoSync) {
		t.Errorf("error = %v, want ErrNoSync in the chain", err)
	}
	// The underlying demodulator failure must survive the wrapping:
	// a no-preamble miss is distinguishable from a bare sentinel.
	if err == nil || err.Error() == ieee802154.ErrNoSync.Error() {
		t.Errorf("error %q lost its underlying cause", err)
	}
}

// TestReceiverErrorCauses checks each "not received" class keeps its
// distinguishing cause while still matching ErrNoSync.
func TestReceiverErrorCauses(t *testing.T) {
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := tx.ModulatePSDU(testPSDU(t, []byte{1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Quality gate: a clean frame decodes at chip distance 0 and passes
	// any gate, so gate a noisy copy that decodes at distance 4.
	noisy := padded.Clone()
	if err := dsp.AddAWGN(noisy, 4, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	rx.Obs = obs.NewRegistry()
	if _, st, err := rx.ReceiveStats(noisy); err != nil || st.WorstChipDistance != 4 {
		t.Fatalf("noisy copy under gate %d: worst chip distance %d, error %v; want 4, nil",
			rx.MaxChipDistance, st.WorstChipDistance, err)
	}
	rx.MaxChipDistance = 1
	const gated = "core: worst chip distance 4 exceeds gate 1: ieee802154: no preamble synchronisation"
	if _, err := rx.Receive(noisy); err == nil || err.Error() != gated || !errors.Is(err, ieee802154.ErrNoSync) {
		t.Errorf("gate drop error = %v, want %q with ErrNoSync in chain", err, gated)
	}
	// Truncated capture after a good preamble: mid-frame abort is still
	// ErrNoSync but the message differs from the correlation failure.
	rx.MaxChipDistance = 15
	cut := padded[:len(padded)*2/3]
	if _, err := rx.Receive(cut); err == nil || !errors.Is(err, ieee802154.ErrNoSync) {
		t.Errorf("truncated frame error = %v, want ErrNoSync in chain", err)
	}
}

// TestReceiverMetrics checks the telemetry wiring: a successful receive
// and a failed one land in the attached registry.
func TestReceiverMetrics(t *testing.T) {
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTrace("test")
	rx.Obs, rx.Trace = reg, tr
	tx.Obs = reg

	sig, err := tx.ModulatePSDU(testPSDU(t, []byte{0xca, 0xfe}))
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Receive(padded); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Receive(nil); err == nil {
		t.Fatal("expected failure on empty capture")
	}

	if got := reg.Counter("wazabee_frames_transmitted_total").Value(); got != 1 {
		t.Errorf("frames transmitted = %d, want 1", got)
	}
	if got := reg.Counter("wazabee_frames_received_total", "decoder", "wazabee").Value(); got != 1 {
		t.Errorf("frames received = %d, want 1", got)
	}
	if got := reg.Counter("wazabee_sync_failures_total", "decoder", "wazabee").Value(); got != 1 {
		t.Errorf("sync failures = %d, want 1", got)
	}
	if got := reg.Counter("wazabee_crc_checks_total", "decoder", "wazabee", "result", "pass").Value(); got != 1 {
		t.Errorf("crc passes = %d, want 1", got)
	}
	h := reg.Histogram("wazabee_worst_chip_distance", nil, "decoder", "wazabee")
	if h.Count() != 1 {
		t.Errorf("chip distance observations = %d, want 1", h.Count())
	}
	if reg.Histogram(obs.StageSecondsMetric, nil, "stage", "aa-correlate").Count() < 1 {
		t.Error("no aa-correlate stage timings recorded")
	}
	if len(tr.Roots()) == 0 {
		t.Error("no spans recorded on the attached trace")
	}
}

func TestTransmitterValidation(t *testing.T) {
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.FrameBits(nil); err == nil {
		t.Error("expected error for nil PPDU")
	}
	if _, err := tx.Modulate(nil); err == nil {
		t.Error("expected error for nil PPDU")
	}
	if _, err := tx.ModulatePSDU(make([]byte, 200)); err == nil {
		t.Error("expected error for oversized PSDU")
	}
	if tx.PHY() == nil {
		t.Error("PHY accessor returned nil")
	}
}

func TestFrameBitsLength(t *testing.T) {
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, []byte{1, 2, 3})
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := tx.FrameBits(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := ieee802154.PreambleLength + 2 + len(psdu)
	wantChips := frameBytes * 64
	if len(bits) != wantChips-1 {
		t.Errorf("frame bits = %d, want %d", len(bits), wantChips-1)
	}
}

// TestDewhitenedFrameBits verifies the section IV-D fallback: the
// pre-compensated bits, passed through the radio's own whitening, equal
// the MSK frame stream (plus byte-alignment padding).
func TestDewhitenedFrameBits(t *testing.T) {
	tx, err := NewTransmitter(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, []byte{0x11, 0x22, 0x33})
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	const channel = 8
	pre, err := tx.DewhitenedFrameBits(channel, ppdu)
	if err != nil {
		t.Fatal(err)
	}
	// The radio whitens the FIFO contents before modulating.
	w, err := bitstream.NewWhitener(channel)
	if err != nil {
		t.Fatal(err)
	}
	onAir := w.Apply(bitstream.Clone(pre))

	want, err := tx.FrameBits(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	if onAir[:len(want)].String() != want.String() {
		t.Error("whitened pre-compensated bits do not reproduce the MSK frame")
	}
	if _, err := tx.DewhitenedFrameBits(99, ppdu); err == nil {
		t.Error("expected error for invalid channel")
	}
	if _, err := tx.DewhitenedFrameBits(channel, nil); err == nil {
		t.Error("expected error for nil PPDU")
	}
}

// TestForgeAdvertisingData verifies the scenario A construction: the
// forged manufacturer data, embedded in an AUX_ADV_IND and whitened by a
// standard BLE controller, produces on-air bits that decode as the target
// Zigbee frame.
func TestForgeAdvertisingData(t *testing.T) {
	const bleChannel = 8 // 2420 MHz = Zigbee channel 14
	psdu := testPSDU(t, []byte{0x61, 0x88, 0x05, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ForgeAdvertisingData(bleChannel, ble.AuxAdvIndOverhead, ppdu)
	if err != nil {
		t.Fatal(err)
	}

	// A standard controller builds the AUX_ADV_IND and whitens it.
	pdu, err := ble.BuildAuxAdvInd([6]byte{1, 2, 3, 4, 5, 6}, 1, 0x155, 0x0059, data)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &ble.Packet{
		AccessAddress: ble.AdvAccessAddress,
		PDU:           pdu,
		Channel:       bleChannel,
		Mode:          ble.LE2M,
		CRCInit:       bitstream.BLEAdvCRCInit,
	}
	airBits, err := pkt.AirBits()
	if err != nil {
		t.Fatal(err)
	}

	// The on-air bits inside the AdvData region must equal the MSK
	// encoding of the frame.
	target, err := ConvertChipStream(ieee802154.Spread(ppdu.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dataBitStart := (2+4)*8 + ble.AuxAdvIndOverhead*8 // preamble+AA, then PDU header bytes
	region := airBits[dataBitStart : dataBitStart+len(target)]
	if region.String() != target.String() {
		t.Fatal("whitened AdvData region does not carry the MSK frame")
	}

	// End to end: modulate the whole BLE packet and let a legitimate
	// 802.15.4 receiver find the embedded frame.
	phy := blePHY(t, ble.LE2M)
	sig, err := phy.ModulateBits(airBits)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(120, 120)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := zigbeePHY(t).Demodulate(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dem.PPDU.PSDU, psdu) {
		t.Errorf("recovered PSDU = % x, want % x", dem.PPDU.PSDU, psdu)
	}
}

func TestForgeAdvertisingDataValidation(t *testing.T) {
	ppdu, err := ieee802154.NewPPDU([]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForgeAdvertisingData(8, 16, nil); err == nil {
		t.Error("expected error for nil PPDU")
	}
	if _, err := ForgeAdvertisingData(8, -1, ppdu); err == nil {
		t.Error("expected error for negative offset")
	}
	if _, err := ForgeAdvertisingData(99, 16, ppdu); err == nil {
		t.Error("expected error for invalid channel")
	}
	data, err := ForgeAdvertisingData(8, 16, ppdu)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := ieee802154.PreambleLength + 2 + 4
	if len(data) != frameBytes*8 {
		t.Errorf("forged data length = %d bytes, want %d", len(data), frameBytes*8)
	}
}
