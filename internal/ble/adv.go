package ble

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Extended advertising PDU construction (Bluetooth 5 "Advertising
// Extensions"). Scenario A transmits attacker-chosen bytes inside the
// AdvData of an AUX_ADV_IND on a secondary (data) channel at LE 2M, which
// is the only way an unprivileged application can place a large controlled
// payload on an arbitrary data channel.

// PDUTypeAdvExt is the advertising PDU type shared by ADV_EXT_IND and
// AUX_ADV_IND.
const PDUTypeAdvExt = 0x07

// ADTypeManufacturer is the AD structure type for manufacturer-specific
// data, the container scenario A uses for the forged frame.
const ADTypeManufacturer = 0xff

// AuxAdvIndOverhead is the number of PDU bytes before the
// manufacturer-specific payload in the AUX_ADV_IND built here: 2 (header)
// + 1 (ext header length/AdvMode) + 1 (ext header flags) + 6 (AdvA) + 2
// (ADI) + 1 (AD length) + 1 (AD type) + 2 (company ID) = 16, matching the
// "padding size of 16 bytes" reported in the paper.
const AuxAdvIndOverhead = 16

// extended header flag bits.
const (
	extFlagAdvA   = 1 << 0
	extFlagADI    = 1 << 3
	extFlagAuxPtr = 1 << 4
)

// Extended header lengths, flags byte included, of the two PDUs built
// here (AdvMode 00, non-connectable non-scannable).
const (
	advExtIndExtLen = 1 + 2 + 3 // flags, ADI, AuxPtr
	auxAdvIndExtLen = 1 + 6 + 2 // flags, AdvA, ADI
)

// AuxPtr describes where the auxiliary advertisement will be transmitted.
type AuxPtr struct {
	// ChannelIndex is the secondary advertising channel (0..36).
	ChannelIndex int
	// OffsetUsec is the time from the start of the ADV_EXT_IND to the
	// start of the AUX_ADV_IND.
	OffsetUsec int
	// PHY is the secondary PHY (LE1M or LE2M).
	PHY Mode
}

// BuildAdvExtInd builds the primary-channel ADV_EXT_IND pointing at the
// auxiliary packet. It carries no host data, only the ADI and AuxPtr.
func BuildAdvExtInd(sid uint8, did uint16, aux AuxPtr) ([]byte, error) {
	if !IsDataChannel(aux.ChannelIndex) {
		return nil, fmt.Errorf("ble: aux channel %d is not a data channel", aux.ChannelIndex)
	}
	if sid > 0x0f {
		return nil, fmt.Errorf("ble: advertising SID %d exceeds 4 bits", sid)
	}
	if did > 0x0fff {
		return nil, fmt.Errorf("ble: advertising DID %#x exceeds 12 bits", did)
	}

	payload := make([]byte, 0, 7)
	// Extended header length (6 bits) | AdvMode (2 bits, 00 =
	// non-connectable non-scannable).
	payload = append(payload, advExtIndExtLen)
	payload = append(payload, extFlagADI|extFlagAuxPtr)
	payload = binary.LittleEndian.AppendUint16(payload, did|uint16(sid)<<12)
	auxBytes, err := encodeAuxPtr(aux)
	if err != nil {
		return nil, err
	}
	payload = append(payload, auxBytes...)

	header := []byte{PDUTypeAdvExt, byte(len(payload))}
	return append(header, payload...), nil
}

// BuildAuxAdvInd builds the secondary-channel AUX_ADV_IND whose AdvData is
// a single manufacturer-specific AD structure wrapping data. The data
// starts exactly AuxAdvIndOverhead bytes into the PDU.
func BuildAuxAdvInd(advA [6]byte, sid uint8, did uint16, companyID uint16, data []byte) ([]byte, error) {
	if sid > 0x0f {
		return nil, fmt.Errorf("ble: advertising SID %d exceeds 4 bits", sid)
	}
	if did > 0x0fff {
		return nil, fmt.Errorf("ble: advertising DID %#x exceeds 12 bits", did)
	}
	// AD length byte covers type + company ID + data and must fit one
	// byte; the PDU length must fit its 8-bit field too.
	adLen := 1 + 2 + len(data)
	if adLen > 0xff {
		return nil, fmt.Errorf("ble: AD structure length %d exceeds 255", adLen)
	}

	payload := make([]byte, 0, AuxAdvIndOverhead-2+len(data))
	payload = append(payload, auxAdvIndExtLen)
	payload = append(payload, extFlagAdvA|extFlagADI)
	payload = append(payload, advA[:]...)
	payload = binary.LittleEndian.AppendUint16(payload, did|uint16(sid)<<12)
	payload = append(payload, byte(adLen), ADTypeManufacturer)
	payload = binary.LittleEndian.AppendUint16(payload, companyID)
	payload = append(payload, data...)

	if len(payload) > 0xff {
		return nil, fmt.Errorf("ble: AUX_ADV_IND payload %d exceeds 255 bytes", len(payload))
	}
	header := []byte{PDUTypeAdvExt, byte(len(payload))}
	return append(header, payload...), nil
}

// ParseAuxAdvInd extracts the manufacturer-specific data from an
// AUX_ADV_IND built by BuildAuxAdvInd. It accepts that layout only —
// no header flag bits, an AdvA+ADI extended header and one AD structure
// filling the PDU — so every PDU it accepts re-encodes to its own
// bytes.
func ParseAuxAdvInd(pdu []byte) (advA [6]byte, companyID uint16, data []byte, err error) {
	if len(pdu) < AuxAdvIndOverhead {
		return advA, 0, nil, fmt.Errorf("ble: AUX_ADV_IND too short (%d bytes)", len(pdu))
	}
	if err := checkAdvExtHeader(pdu, auxAdvIndExtLen, extFlagAdvA|extFlagADI); err != nil {
		return advA, 0, nil, err
	}
	copy(advA[:], pdu[4:10])
	if pdu[13] != ADTypeManufacturer {
		return advA, 0, nil, fmt.Errorf("ble: AD type %#x is not manufacturer data", pdu[13])
	}
	if adLen := int(pdu[12]); 13+adLen != len(pdu) {
		return advA, 0, nil, fmt.Errorf("ble: AD structure length %d does not fill the %d-byte PDU", adLen, len(pdu))
	}
	companyID = binary.LittleEndian.Uint16(pdu[14:16])
	data = append([]byte{}, pdu[AuxAdvIndOverhead:]...)
	return advA, companyID, data, nil
}

// checkAdvExtHeader checks the PDU header and the extended header
// length and flags bytes of an extended advertising PDU against the
// ones the builders write.
func checkAdvExtHeader(pdu []byte, extLen, flags byte) error {
	if pdu[0] != PDUTypeAdvExt {
		return fmt.Errorf("ble: PDU header %#x is not a bare ADV_EXT (%#x)", pdu[0], PDUTypeAdvExt)
	}
	if int(pdu[1]) != len(pdu)-2 {
		return fmt.Errorf("ble: PDU length field %d does not match %d payload bytes", pdu[1], len(pdu)-2)
	}
	if pdu[2] != extLen || pdu[3] != flags {
		return fmt.Errorf("ble: extended header length/flags %#x/%#x, want %#x/%#x", pdu[2], pdu[3], extLen, flags)
	}
	return nil
}

func encodeAuxPtr(aux AuxPtr) ([]byte, error) {
	if aux.PHY != LE1M && aux.PHY != LE2M {
		return nil, fmt.Errorf("ble: aux PHY %v unsupported", aux.PHY)
	}
	// Offset units: 30 µs below 245700 µs, else 300 µs.
	units := 30
	unitsBit := 0
	if aux.OffsetUsec >= 245700 {
		units = 300
		unitsBit = 1
	}
	offset := aux.OffsetUsec / units
	if aux.OffsetUsec < 0 || offset > 0x1fff {
		return nil, fmt.Errorf("ble: aux offset %d µs out of range", aux.OffsetUsec)
	}
	phyBits := 0 // LE 1M
	if aux.PHY == LE2M {
		phyBits = 1
	}
	b0 := byte(aux.ChannelIndex) | byte(unitsBit)<<7
	b1 := byte(offset & 0xff)
	b2 := byte(offset>>8) | byte(phyBits)<<5
	return []byte{b0, b1, b2}, nil
}

// DecodeAuxPtr parses the three AuxPtr bytes of an ADV_EXT_IND built by
// BuildAdvExtInd (it appears at payload offset 4, PDU offset 6). It
// accepts that layout only, with an AuxPtr BuildAdvExtInd would write,
// so every PDU it accepts re-encodes to its own bytes.
func DecodeAuxPtr(pdu []byte) (AuxPtr, error) {
	// Header, extended header length byte, extended header.
	if want := 2 + 1 + advExtIndExtLen; len(pdu) != want {
		return AuxPtr{}, fmt.Errorf("ble: ADV_EXT_IND is %d bytes, want %d", len(pdu), want)
	}
	if err := checkAdvExtHeader(pdu, advExtIndExtLen, extFlagADI|extFlagAuxPtr); err != nil {
		return AuxPtr{}, err
	}
	raw := pdu[6:9]
	units := 30
	if raw[0]>>7 == 1 {
		units = 300
	}
	offset := (int(raw[1]) | int(raw[2]&0x1f)<<8) * units
	phy := LE1M
	if raw[2]>>5 == 1 {
		phy = LE2M
	}
	aux := AuxPtr{
		ChannelIndex: int(raw[0] & 0x3f),
		OffsetUsec:   offset,
		PHY:          phy,
	}
	if !IsDataChannel(aux.ChannelIndex) {
		return AuxPtr{}, fmt.Errorf("ble: aux channel %d is not a data channel", aux.ChannelIndex)
	}
	// The clock-accuracy bit, a reserved PHY or an offset in the other
	// unit decode to an AuxPtr that encodes differently.
	if enc, err := encodeAuxPtr(aux); err != nil || !bytes.Equal(enc, raw) {
		return AuxPtr{}, fmt.Errorf("ble: AuxPtr % x is not one BuildAdvExtInd writes", raw)
	}
	return aux, nil
}
