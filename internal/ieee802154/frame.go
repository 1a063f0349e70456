package ieee802154

import (
	"bytes"
	"fmt"
)

const (
	// PreambleLength is the number of zero octets opening every PPDU.
	PreambleLength = 4

	// SFD is the start-of-frame delimiter octet. IEEE 802.15.4-2015
	// specifies the value 0xA7 (the paper prints it as 0x7A because it
	// writes the nibbles in transmission order: the low nibble 0x7 is
	// spread first).
	SFD = 0xa7

	// MaxPSDULength is the largest PHY payload (aMaxPHYPacketSize).
	MaxPSDULength = 127
)

// PPDU is a PHY protocol data unit: the synchronisation header, a length
// byte (PHR) and the PHY service data unit carrying the MAC frame.
type PPDU struct {
	// PSDU is the PHY payload, including the trailing two-byte FCS.
	PSDU []byte
}

// NewPPDU validates the payload length and wraps it in a PPDU.
func NewPPDU(psdu []byte) (*PPDU, error) {
	if len(psdu) > MaxPSDULength {
		return nil, fmt.Errorf("ieee802154: PSDU length %d exceeds %d", len(psdu), MaxPSDULength)
	}
	cp := make([]byte, len(psdu))
	copy(cp, psdu)
	return &PPDU{PSDU: cp}, nil
}

// Bytes serialises the PPDU into the exact octet sequence handed to the
// spreader: preamble, SFD, PHR (frame length) and PSDU.
func (p *PPDU) Bytes() []byte {
	out := make([]byte, PreambleLength, PreambleLength+2+len(p.PSDU))
	out = append(out, SFD, byte(len(p.PSDU)))
	return append(out, p.PSDU...)
}

// ParsePPDU decodes an octet sequence starting at the preamble back into a
// PPDU, validating the synchronisation header and length field. It accepts
// trailing garbage after the PSDU, as a receiver that stops after
// frame-length octets would.
func ParsePPDU(raw []byte) (*PPDU, error) {
	header := PreambleLength + 2
	if len(raw) < header {
		return nil, fmt.Errorf("ieee802154: truncated PPDU header (%d bytes)", len(raw))
	}
	if !bytes.Equal(raw[:PreambleLength], make([]byte, PreambleLength)) {
		return nil, fmt.Errorf("ieee802154: invalid preamble % x", raw[:PreambleLength])
	}
	if raw[PreambleLength] != SFD {
		return nil, fmt.Errorf("ieee802154: invalid SFD %#02x", raw[PreambleLength])
	}
	length := int(raw[PreambleLength+1])
	if length > MaxPSDULength {
		return nil, fmt.Errorf("ieee802154: PHR length %d exceeds %d", length, MaxPSDULength)
	}
	if len(raw) < header+length {
		return nil, fmt.Errorf("ieee802154: PSDU truncated: have %d, want %d", len(raw)-header, length)
	}
	psdu := make([]byte, length)
	copy(psdu, raw[header:header+length])
	return &PPDU{PSDU: psdu}, nil
}
