package core

import (
	"fmt"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

// Transmitter is the WazaBee transmission primitive: it drives a BLE GFSK
// modulator with MSK-converted PN sequences so that the emitted waveform
// demodulates as a valid IEEE 802.15.4 frame.
type Transmitter struct {
	phy *ble.PHY

	// Obs receives the transmitter's metrics (frames, stage timings);
	// nil falls back to the process default registry.
	Obs *obs.Registry

	// Trace, when non-nil, records a "modulate" span per frame.
	Trace *obs.Trace
}

// NewTransmitter wraps a BLE PHY. The PHY must run at 2 Mbit/s (LE 2M, or
// the ESB 2M fallback) so that one MSK symbol lasts exactly one O-QPSK
// chip period — the data-rate requirement of section IV-D.
func NewTransmitter(phy *ble.PHY) (*Transmitter, error) {
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
	return &Transmitter{phy: phy}, nil
}

// FrameBits converts a PPDU into the on-air bit sequence the BLE modulator
// must send: DSSS spreading to chips, then whole-stream MSK conversion.
func (t *Transmitter) FrameBits(ppdu *ieee802154.PPDU) (bitstream.Bits, error) {
	if ppdu == nil {
		return nil, fmt.Errorf("core: nil PPDU")
	}
	return ConvertChipStream(ieee802154.Spread(ppdu.Bytes()))
}

// Modulate produces the complex-baseband waveform of the diverted BLE
// radio transmitting the frame.
func (t *Transmitter) Modulate(ppdu *ieee802154.PPDU) (dsp.IQ, error) {
	reg := obs.Or(t.Obs)
	end := obs.Stage(reg, t.Trace, "modulate")
	defer end()
	bits, err := t.FrameBits(ppdu)
	if err != nil {
		return nil, err
	}
	sig, err := t.phy.ModulateBits(bits)
	if err != nil {
		return nil, err
	}
	reg.Counter("wazabee_frames_transmitted_total").Inc()
	return sig, nil
}

// ModulatePSDU wraps a MAC-level PSDU in a PPDU and modulates it.
func (t *Transmitter) ModulatePSDU(psdu []byte) (dsp.IQ, error) {
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		return nil, err
	}
	return t.Modulate(ppdu)
}

// PHY exposes the underlying BLE modem (for impairment configuration by
// the chip models).
func (t *Transmitter) PHY() *ble.PHY {
	return t.phy
}

// DewhitenedFrameBits implements the section IV-D fallback for chips
// whose whitening cannot be disabled: because whitening is a reversible
// XOR stream, pre-applying it ("dewhitening") makes the radio's own
// whitening cancel out, leaving the MSK frame bits on the air. The
// returned bits are padded to whole bytes, as a radio FIFO requires.
func (t *Transmitter) DewhitenedFrameBits(bleChannel int, ppdu *ieee802154.PPDU) (bitstream.Bits, error) {
	bits, err := t.FrameBits(ppdu)
	if err != nil {
		return nil, err
	}
	for len(bits)%8 != 0 {
		bits = append(bits, 0)
	}
	w, err := bitstream.NewWhitener(bleChannel)
	if err != nil {
		return nil, err
	}
	return w.Apply(bits), nil
}

// ForgeAdvertisingData implements the scenario A payload construction: it
// returns the manufacturer-data bytes to hand to a standard extended-
// advertising API so that, after the controller whitens the AUX_ADV_IND
// for bleChannel, the on-air bits from the payload position onward equal
// the MSK encoding of the 802.15.4 frame.
//
// payloadByteOffset is the number of PDU bytes the controller places
// before the attacker-controlled data (16 for the manufacturer-data
// AUX_ADV_IND layout, per the paper). The whitening stream is XORed in
// advance ("dewhitening"), so the radio's own whitening cancels out.
func ForgeAdvertisingData(bleChannel, payloadByteOffset int, ppdu *ieee802154.PPDU) ([]byte, error) {
	if ppdu == nil {
		return nil, fmt.Errorf("core: nil PPDU")
	}
	if payloadByteOffset < 0 {
		return nil, fmt.Errorf("core: negative payload offset %d", payloadByteOffset)
	}
	target, err := ConvertChipStream(ieee802154.Spread(ppdu.Bytes()))
	if err != nil {
		return nil, err
	}
	// Pad to a whole number of bytes (the MSK stream is 64n-1 bits; the
	// extra trailing bit is past the frame and harmless).
	for len(target)%8 != 0 {
		target = append(target, 0)
	}
	// The controller whitens PDU bits starting at the PDU's first bit;
	// skip the header bytes that precede our data.
	w, err := bitstream.NewWhitener(bleChannel)
	if err != nil {
		return nil, err
	}
	for i := 0; i < payloadByteOffset*8; i++ {
		w.NextBit()
	}
	w.Apply(target)
	return bitstream.BitsToBytes(target)
}
