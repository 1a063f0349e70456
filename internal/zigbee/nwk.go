package zigbee

// Zigbee network (NWK) and application support (APS) layer framing, the
// layers the Zigbee specification defines above IEEE 802.15.4 (section
// III-C of the paper). The attack itself operates at the PHY/MAC layer,
// but a usable Zigbee toolkit must parse what it sniffs and build what
// it injects at these layers too — the ZCL payloads of real smart-home
// traffic ride inside APS inside NWK.

import (
	"encoding/binary"
	"fmt"
)

// NWKFrameType distinguishes data from NWK command frames.
type NWKFrameType uint8

const (
	NWKData    NWKFrameType = 0
	NWKCommand NWKFrameType = 1
)

// nwkProtocolVersion is the Zigbee PRO protocol version.
const nwkProtocolVersion = 2

// nwkFCFBits are the frame-control bits NWKFrame.Encode writes: frame
// type (0-1), protocol version (2-5), discover route (6), security (9)
// and the destination and source IEEE address flags (11, 12). The others
// (multicast, source route, end-device initiator, reserved) add header
// fields this codec does not lay out, so ParseNWKFrame refuses a frame
// carrying one rather than misread it.
const nwkFCFBits = 0x3 | 0xf<<2 | 1<<6 | 1<<9 | 1<<11 | 1<<12

// NWKFrame is a network-layer frame.
type NWKFrame struct {
	Type NWKFrameType
	// DiscoverRoute enables route discovery on forwarding.
	DiscoverRoute bool
	// Security marks NWK-layer encryption (carried, not applied here;
	// link-layer CCM* lives in SecurityContext).
	Security bool

	DestAddr uint16
	SrcAddr  uint16
	// Radius bounds forwarding hops.
	Radius uint8
	// Seq is the NWK sequence number.
	Seq uint8

	// DestIEEE and SrcIEEE optionally carry 64-bit addresses.
	DestIEEE, SrcIEEE *uint64

	Payload []byte
}

// Encode serialises the NWK frame.
func (f *NWKFrame) Encode() ([]byte, error) {
	if f.Type > NWKCommand {
		return nil, fmt.Errorf("zigbee: invalid NWK frame type %d", f.Type)
	}
	fcf := uint16(f.Type) | nwkProtocolVersion<<2
	if f.DiscoverRoute {
		fcf |= 1 << 6
	}
	if f.Security {
		fcf |= 1 << 9
	}
	if f.DestIEEE != nil {
		fcf |= 1 << 11
	}
	if f.SrcIEEE != nil {
		fcf |= 1 << 12
	}

	out := make([]byte, 0, 8+len(f.Payload))
	out = binary.LittleEndian.AppendUint16(out, fcf)
	out = binary.LittleEndian.AppendUint16(out, f.DestAddr)
	out = binary.LittleEndian.AppendUint16(out, f.SrcAddr)
	out = append(out, f.Radius, f.Seq)
	if f.DestIEEE != nil {
		out = binary.LittleEndian.AppendUint64(out, *f.DestIEEE)
	}
	if f.SrcIEEE != nil {
		out = binary.LittleEndian.AppendUint64(out, *f.SrcIEEE)
	}
	return append(out, f.Payload...), nil
}

// ParseNWKFrame decodes a network-layer frame.
func ParseNWKFrame(data []byte) (*NWKFrame, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("zigbee: NWK frame too short (%d bytes)", len(data))
	}
	fcf := binary.LittleEndian.Uint16(data[0:2])
	if fcf&^nwkFCFBits != 0 {
		return nil, fmt.Errorf("zigbee: unsupported NWK frame control %#04x", fcf)
	}
	if v := (fcf >> 2) & 0xf; v != nwkProtocolVersion {
		return nil, fmt.Errorf("zigbee: unsupported NWK protocol version %d", v)
	}
	f := &NWKFrame{
		Type:          NWKFrameType(fcf & 0x3),
		DiscoverRoute: fcf&(1<<6) != 0,
		Security:      fcf&(1<<9) != 0,
		DestAddr:      binary.LittleEndian.Uint16(data[2:4]),
		SrcAddr:       binary.LittleEndian.Uint16(data[4:6]),
		Radius:        data[6],
		Seq:           data[7],
	}
	if f.Type > NWKCommand {
		return nil, fmt.Errorf("zigbee: invalid NWK frame type %d", f.Type)
	}
	off := 8
	if fcf&(1<<11) != 0 {
		if len(data) < off+8 {
			return nil, fmt.Errorf("zigbee: truncated destination IEEE address")
		}
		v := binary.LittleEndian.Uint64(data[off:])
		f.DestIEEE = &v
		off += 8
	}
	if fcf&(1<<12) != 0 {
		if len(data) < off+8 {
			return nil, fmt.Errorf("zigbee: truncated source IEEE address")
		}
		v := binary.LittleEndian.Uint64(data[off:])
		f.SrcIEEE = &v
		off += 8
	}
	f.Payload = append([]byte{}, data[off:]...)
	return f, nil
}

// APSFrameType distinguishes APS data, command and acknowledgement.
type APSFrameType uint8

const (
	APSData    APSFrameType = 0
	APSCommand APSFrameType = 1
	APSAck     APSFrameType = 2
)

// APSFrame is an application-support-layer frame (unicast endpoint
// delivery mode; group addressing is out of scope for the scenarios).
type APSFrame struct {
	Type APSFrameType
	// AckRequest solicits an APS-level acknowledgement.
	AckRequest bool

	DestEndpoint uint8
	ClusterID    uint16
	ProfileID    uint16
	SrcEndpoint  uint8
	// Counter deduplicates APS transmissions.
	Counter uint8

	Payload []byte
}

// apsFCFBits are the frame-control bits APSFrame.Encode writes: frame
// type (0-1) and ack request (6). Group or broadcast delivery (2-3), ack
// format (4), security (5) and the extended header (7) change the header
// layout, so ParseAPSFrame refuses a frame carrying one.
const apsFCFBits = 0x3 | 1<<6

// Encode serialises the APS frame.
func (f *APSFrame) Encode() ([]byte, error) {
	if f.Type > APSAck {
		return nil, fmt.Errorf("zigbee: invalid APS frame type %d", f.Type)
	}
	fcf := uint8(f.Type) // delivery mode unicast = 00 in bits 2-3
	if f.AckRequest {
		fcf |= 1 << 6
	}
	out := make([]byte, 0, 8+len(f.Payload))
	out = append(out, fcf, f.DestEndpoint)
	out = binary.LittleEndian.AppendUint16(out, f.ClusterID)
	out = binary.LittleEndian.AppendUint16(out, f.ProfileID)
	out = append(out, f.SrcEndpoint, f.Counter)
	return append(out, f.Payload...), nil
}

// ParseAPSFrame decodes an APS frame.
func ParseAPSFrame(data []byte) (*APSFrame, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("zigbee: APS frame too short (%d bytes)", len(data))
	}
	if data[0]&^apsFCFBits != 0 {
		return nil, fmt.Errorf("zigbee: unsupported APS frame control %#02x", data[0])
	}
	f := &APSFrame{
		Type:         APSFrameType(data[0] & 0x3),
		AckRequest:   data[0]&(1<<6) != 0,
		DestEndpoint: data[1],
		ClusterID:    binary.LittleEndian.Uint16(data[2:4]),
		ProfileID:    binary.LittleEndian.Uint16(data[4:6]),
		SrcEndpoint:  data[6],
		Counter:      data[7],
		Payload:      append([]byte{}, data[8:]...),
	}
	if f.Type > APSAck {
		return nil, fmt.Errorf("zigbee: invalid APS frame type %d", f.Type)
	}
	return f, nil
}

// Common ZCL/HA identifiers used by examples and tests.
const (
	// ProfileHomeAutomation is the classic HA profile.
	ProfileHomeAutomation = 0x0104
	// ClusterOnOff is the on/off cluster of lights and plugs, the kind
	// of device the "IoT goes nuclear" chain reaction [4] targeted.
	ClusterOnOff = 0x0006
	// ClusterTemperature is the temperature measurement cluster.
	ClusterTemperature = 0x0402
)

// BuildZigbeeDataFrame stacks APS inside NWK and returns the NWK-encoded
// bytes, ready to be carried as an 802.15.4 MAC payload.
func BuildZigbeeDataFrame(nwkSeq, apsCounter uint8, dest, src uint16, cluster uint16, payload []byte) ([]byte, error) {
	aps := &APSFrame{
		Type:         APSData,
		DestEndpoint: 1,
		ClusterID:    cluster,
		ProfileID:    ProfileHomeAutomation,
		SrcEndpoint:  1,
		Counter:      apsCounter,
		Payload:      payload,
	}
	apsBytes, err := aps.Encode()
	if err != nil {
		return nil, err
	}
	nwk := &NWKFrame{
		Type:     NWKData,
		DestAddr: dest,
		SrcAddr:  src,
		Radius:   30,
		Seq:      nwkSeq,
		Payload:  apsBytes,
	}
	return nwk.Encode()
}

// ParseZigbeeDataFrame unstacks NWK then APS.
func ParseZigbeeDataFrame(data []byte) (*NWKFrame, *APSFrame, error) {
	nwk, err := ParseNWKFrame(data)
	if err != nil {
		return nil, nil, err
	}
	if nwk.Type != NWKData {
		return nwk, nil, fmt.Errorf("zigbee: not a NWK data frame")
	}
	aps, err := ParseAPSFrame(nwk.Payload)
	if err != nil {
		return nwk, nil, err
	}
	return nwk, aps, nil
}
