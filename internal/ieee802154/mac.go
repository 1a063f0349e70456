package ieee802154

import (
	"encoding/binary"
	"fmt"

	"wazabee/internal/bitstream"
)

// FrameType enumerates the IEEE 802.15.4 MAC frame types.
type FrameType uint8

const (
	FrameBeacon FrameType = iota
	FrameData
	FrameAck
	FrameCommand
)

// String implements fmt.Stringer for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameBeacon:
		return "beacon"
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameCommand:
		return "command"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// AddrMode enumerates the MAC addressing modes supported here.
type AddrMode uint8

const (
	// AddrNone omits the address field.
	AddrNone AddrMode = 0
	// AddrShort uses 16-bit short addresses, the mode the scenario
	// networks use (0x0042, 0x0063).
	AddrShort AddrMode = 2
)

// CommandID enumerates MAC command identifiers used by the scenarios.
type CommandID uint8

const (
	// CmdAssociationRequest asks a coordinator to admit a new device.
	CmdAssociationRequest CommandID = 0x01
	// CmdAssociationResponse carries the assigned short address.
	CmdAssociationResponse CommandID = 0x02
	// CmdBeaconRequest solicits beacons during active scanning.
	CmdBeaconRequest CommandID = 0x07
)

// Association response status codes.
const (
	AssocStatusSuccess       = 0x00
	AssocStatusPANAtCapacity = 0x01
	AssocStatusDenied        = 0x02
)

// BroadcastPAN and BroadcastAddr are the 0xFFFF broadcast identifiers;
// NoShortAddress (0xFFFE) marks a device that has not yet been assigned
// a short address.
const (
	BroadcastPAN   = 0xffff
	BroadcastAddr  = 0xffff
	NoShortAddress = 0xfffe
)

// MACFrame models a MAC protocol data unit with short addressing. Extended
// (64-bit) addressing is not needed by any reproduced experiment.
type MACFrame struct {
	Type           FrameType
	Security       bool
	FramePending   bool
	AckRequest     bool
	PANCompression bool
	Seq            uint8

	DestMode AddrMode
	DestPAN  uint16
	DestAddr uint16

	SrcMode AddrMode
	SrcPAN  uint16
	SrcAddr uint16

	Payload []byte
}

// Encode serialises the frame into a new PSDU: MHR, payload and the
// two-byte FCS computed over everything before it.
func (f *MACFrame) Encode() ([]byte, error) {
	out, err := f.Append(make([]byte, 0, 11+len(f.Payload)+2))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Append appends the frame's PSDU (MHR, payload and FCS) to dst and
// returns the extended slice; on error dst comes back unchanged. It is
// the one MAC encoder: Encode calls it with a fresh buffer, the mesh
// simulator with a recycled one.
func (f *MACFrame) Append(dst []byte) ([]byte, error) {
	if err := f.checkHeader(); err != nil {
		return dst, err
	}

	fcf := uint16(f.Type)
	if f.Security {
		fcf |= 1 << 3
	}
	if f.FramePending {
		fcf |= 1 << 4
	}
	if f.AckRequest {
		fcf |= 1 << 5
	}
	if f.PANCompression {
		fcf |= 1 << 6
	}
	fcf |= uint16(f.DestMode) << 10
	fcf |= uint16(f.SrcMode) << 14

	start := len(dst)
	out := binary.LittleEndian.AppendUint16(dst, fcf)
	out = append(out, f.Seq)
	if f.DestMode == AddrShort {
		out = binary.LittleEndian.AppendUint16(out, f.DestPAN)
		out = binary.LittleEndian.AppendUint16(out, f.DestAddr)
	}
	if f.SrcMode == AddrShort {
		if !f.PANCompression {
			out = binary.LittleEndian.AppendUint16(out, f.SrcPAN)
		}
		out = binary.LittleEndian.AppendUint16(out, f.SrcAddr)
	}
	out = append(out, f.Payload...)

	fcs := bitstream.FCS16Bytes(bitstream.FCS16(out[start:]))
	out = append(out, fcs[0], fcs[1])
	if n := len(out) - start; n > MaxPSDULength {
		return dst, fmt.Errorf("ieee802154: encoded frame length %d exceeds %d", n, MaxPSDULength)
	}
	return out, nil
}

// ParseMACFrame decodes a PSDU (including FCS) into a MACFrame. The FCS is
// verified; a mismatch returns FCSError so callers can distinguish
// corruption from malformed headers. A PSDU longer than MaxPSDULength
// cannot come off the air, and Encode could not reproduce it, so it is
// rejected.
func ParseMACFrame(psdu []byte) (*MACFrame, error) {
	if len(psdu) < 5 { // FCF + seq + FCS
		return nil, fmt.Errorf("ieee802154: PSDU too short (%d bytes)", len(psdu))
	}
	if len(psdu) > MaxPSDULength {
		return nil, fmt.Errorf("ieee802154: PSDU length %d exceeds %d", len(psdu), MaxPSDULength)
	}
	if !bitstream.CheckFCS(psdu) {
		return nil, &FCSError{Length: len(psdu)}
	}
	body := psdu[:len(psdu)-2]

	fcf := binary.LittleEndian.Uint16(body[0:2])
	f := &MACFrame{
		Type:           FrameType(fcf & 0x7),
		Security:       fcf&(1<<3) != 0,
		FramePending:   fcf&(1<<4) != 0,
		AckRequest:     fcf&(1<<5) != 0,
		PANCompression: fcf&(1<<6) != 0,
		Seq:            body[2],
		DestMode:       AddrMode((fcf >> 10) & 0x3),
		SrcMode:        AddrMode((fcf >> 14) & 0x3),
	}
	if err := f.checkHeader(); err != nil {
		return nil, err
	}

	off := 3
	need := func(n int) error {
		if off+n > len(body) {
			return fmt.Errorf("ieee802154: truncated addressing fields")
		}
		return nil
	}
	if f.DestMode == AddrShort {
		if err := need(4); err != nil {
			return nil, err
		}
		f.DestPAN = binary.LittleEndian.Uint16(body[off:])
		f.DestAddr = binary.LittleEndian.Uint16(body[off+2:])
		off += 4
	}
	if f.SrcMode == AddrShort {
		if f.PANCompression {
			if err := need(2); err != nil {
				return nil, err
			}
			f.SrcPAN = f.DestPAN
			f.SrcAddr = binary.LittleEndian.Uint16(body[off:])
			off += 2
		} else {
			if err := need(4); err != nil {
				return nil, err
			}
			f.SrcPAN = binary.LittleEndian.Uint16(body[off:])
			f.SrcAddr = binary.LittleEndian.Uint16(body[off+2:])
			off += 4
		}
	}
	f.Payload = make([]byte, len(body)-off)
	copy(f.Payload, body[off:])
	return f, nil
}

// FCSError reports a frame whose checksum did not verify — the "received
// with integrity corruption" class of Table III.
type FCSError struct {
	Length int
}

func (e *FCSError) Error() string {
	return fmt.Sprintf("ieee802154: FCS mismatch on %d-byte PSDU", e.Length)
}

// checkHeader validates the header fields the codec supports, for Encode
// and ParseMACFrame alike: a defined frame type, short or absent
// addresses, and PAN ID compression only when both addresses are
// present.
func (f *MACFrame) checkHeader() error {
	if f.Type > FrameCommand {
		return fmt.Errorf("ieee802154: invalid frame type %d", f.Type)
	}
	for _, m := range []AddrMode{f.DestMode, f.SrcMode} {
		if m != AddrNone && m != AddrShort {
			return fmt.Errorf("ieee802154: unsupported addressing mode %d", m)
		}
	}
	if f.PANCompression && (f.DestMode == AddrNone || f.SrcMode == AddrNone) {
		return fmt.Errorf("ieee802154: PAN ID compression requires both addresses")
	}
	return nil
}

// The frame constructors come in pairs: SetX overwrites an existing
// frame in place and returns it, building any payload of its own in
// f.Payload's storage, so a caller that recycles frames (the mesh
// simulator) allocates nothing; NewX is SetX on a new frame.

// NewBeaconRequest builds the broadcast beacon-request command used by
// active scanning (scenario B step 1).
func NewBeaconRequest(seq uint8) *MACFrame {
	return new(MACFrame).SetBeaconRequest(seq)
}

// SetBeaconRequest overwrites f with NewBeaconRequest's frame.
func (f *MACFrame) SetBeaconRequest(seq uint8) *MACFrame {
	*f = MACFrame{
		Type:     FrameCommand,
		Seq:      seq,
		DestMode: AddrShort,
		DestPAN:  BroadcastPAN,
		DestAddr: BroadcastAddr,
		SrcMode:  AddrNone,
		Payload:  append(f.Payload[:0], byte(CmdBeaconRequest)),
	}
	return f
}

// NewBeacon builds a minimal beacon frame advertising a PAN coordinator, as
// sent in response to a beacon request on a beacon-enabled-less network.
func NewBeacon(seq uint8, pan, coordAddr uint16) *MACFrame {
	return new(MACFrame).SetBeacon(seq, pan, coordAddr)
}

// SetBeacon overwrites f with NewBeacon's frame.
func (f *MACFrame) SetBeacon(seq uint8, pan, coordAddr uint16) *MACFrame {
	// Superframe specification: BO=SO=15 (non-beacon-enabled), PAN
	// coordinator bit set, association permitted.
	const superframeSpec = 0xcfff
	payload := binary.LittleEndian.AppendUint16(f.Payload[:0], superframeSpec)
	payload = append(payload, 0x00, 0x00) // GTS none, no pending addresses
	*f = MACFrame{
		Type:    FrameBeacon,
		Seq:     seq,
		SrcMode: AddrShort,
		SrcPAN:  pan,
		SrcAddr: coordAddr,
		Payload: payload,
	}
	return f
}

// NewDataFrame builds an intra-PAN data frame between two short addresses.
// The frame aliases payload.
func NewDataFrame(seq uint8, pan, dest, src uint16, payload []byte, ackRequest bool) *MACFrame {
	return new(MACFrame).SetDataFrame(seq, pan, dest, src, payload, ackRequest)
}

// SetDataFrame overwrites f with NewDataFrame's frame, aliasing payload;
// build payload in f.Payload[:0] to keep f's storage.
func (f *MACFrame) SetDataFrame(seq uint8, pan, dest, src uint16, payload []byte, ackRequest bool) *MACFrame {
	*f = MACFrame{
		Type:           FrameData,
		AckRequest:     ackRequest,
		PANCompression: true,
		Seq:            seq,
		DestMode:       AddrShort,
		DestPAN:        pan,
		DestAddr:       dest,
		SrcMode:        AddrShort,
		SrcPAN:         pan,
		SrcAddr:        src,
		Payload:        payload,
	}
	return f
}

// NewAck builds the immediate acknowledgement for a frame with the given
// sequence number.
func NewAck(seq uint8) *MACFrame {
	return new(MACFrame).SetAck(seq)
}

// SetAck overwrites f with NewAck's frame. Its payload is empty, and
// f.Payload keeps its storage.
func (f *MACFrame) SetAck(seq uint8) *MACFrame {
	*f = MACFrame{Type: FrameAck, Seq: seq, Payload: f.Payload[:0]}
	return f
}

// NewAssociationRequest builds the MAC command a device sends to join a
// PAN. capability is the capability-information bitmap of the standard
// (0x8e: allocate address, mains powered, RX on when idle).
func NewAssociationRequest(seq uint8, pan, coordAddr uint16, capability byte) *MACFrame {
	return new(MACFrame).SetAssociationRequest(seq, pan, coordAddr, capability)
}

// SetAssociationRequest overwrites f with NewAssociationRequest's frame.
func (f *MACFrame) SetAssociationRequest(seq uint8, pan, coordAddr uint16, capability byte) *MACFrame {
	*f = MACFrame{
		Type:       FrameCommand,
		AckRequest: true,
		Seq:        seq,
		DestMode:   AddrShort,
		DestPAN:    pan,
		DestAddr:   coordAddr,
		SrcMode:    AddrShort,
		SrcPAN:     BroadcastPAN,
		SrcAddr:    NoShortAddress, // not yet associated
		Payload:    append(f.Payload[:0], byte(CmdAssociationRequest), capability),
	}
	return f
}

// NewAssociationResponse builds the coordinator's reply assigning a
// short address (0xFFFF with a non-success status).
func NewAssociationResponse(seq uint8, pan, dest uint16, assigned uint16, status byte) *MACFrame {
	return new(MACFrame).SetAssociationResponse(seq, pan, dest, assigned, status)
}

// SetAssociationResponse overwrites f with NewAssociationResponse's
// frame.
func (f *MACFrame) SetAssociationResponse(seq uint8, pan, dest uint16, assigned uint16, status byte) *MACFrame {
	*f = MACFrame{
		Type:           FrameCommand,
		PANCompression: true,
		Seq:            seq,
		DestMode:       AddrShort,
		DestPAN:        pan,
		DestAddr:       dest,
		SrcMode:        AddrShort,
		SrcPAN:         pan,
		SrcAddr:        0x0000, // coordinator role address in responses
		Payload:        append(f.Payload[:0], byte(CmdAssociationResponse), byte(assigned), byte(assigned>>8), status),
	}
	return f
}

// ParseAssociationResponse extracts the assigned address and status from
// an association response payload.
func ParseAssociationResponse(payload []byte) (assigned uint16, status byte, err error) {
	if len(payload) != 4 || CommandID(payload[0]) != CmdAssociationResponse {
		return 0, 0, fmt.Errorf("ieee802154: not an association response")
	}
	return uint16(payload[1]) | uint16(payload[2])<<8, payload[3], nil
}
