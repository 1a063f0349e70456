package zigbee

// Zigbee Cluster Library (ZCL) framing: the application payloads real
// smart-home traffic carries inside APS frames. With this layer the
// attack demos speak complete Zigbee — the "IoT goes nuclear" chain
// reaction the paper cites ([4]) was ZCL on/off traffic to smart lamps.

import (
	"encoding/binary"
	"fmt"
)

// ZCLFrameType distinguishes profile-wide from cluster-specific commands.
type ZCLFrameType uint8

const (
	// ZCLProfileWide commands (read/write/report attributes) work on
	// every cluster.
	ZCLProfileWide ZCLFrameType = 0
	// ZCLClusterSpecific commands belong to one cluster (On/Off's
	// toggle, for instance).
	ZCLClusterSpecific ZCLFrameType = 1
)

// Profile-wide command identifiers.
const (
	ZCLCmdReportAttributes = 0x0a
)

// On/Off cluster command identifiers.
const (
	OnOffCmdOff    = 0x00
	OnOffCmdOn     = 0x01
	OnOffCmdToggle = 0x02
)

// ZCL attribute data types used here.
const (
	ZCLTypeInt16 = 0x29
)

// ZCLFrame is a cluster-library frame.
type ZCLFrame struct {
	Type ZCLFrameType
	// ManufacturerCode, when non-nil, marks a manufacturer-specific
	// extension.
	ManufacturerCode *uint16
	// Direction reports server-to-client when true.
	Direction bool
	// DisableDefaultResponse suppresses the default response.
	DisableDefaultResponse bool
	// Seq is the transaction sequence number.
	Seq uint8
	// Command is the command identifier.
	Command uint8
	Payload []byte
}

// zclFCFBits are the frame-control bits ZCLFrame.Encode writes: frame
// type (0-1), manufacturer specific (2), direction (3) and disable
// default response (4). ParseZCLFrame refuses the reserved bits 5-7.
const zclFCFBits = 0x1f

// Encode serialises the ZCL frame.
func (f *ZCLFrame) Encode() ([]byte, error) {
	if f.Type > ZCLClusterSpecific {
		return nil, fmt.Errorf("zigbee: invalid ZCL frame type %d", f.Type)
	}
	fcf := uint8(f.Type)
	if f.ManufacturerCode != nil {
		fcf |= 1 << 2
	}
	if f.Direction {
		fcf |= 1 << 3
	}
	if f.DisableDefaultResponse {
		fcf |= 1 << 4
	}
	out := make([]byte, 0, 5+len(f.Payload))
	out = append(out, fcf)
	if f.ManufacturerCode != nil {
		out = binary.LittleEndian.AppendUint16(out, *f.ManufacturerCode)
	}
	out = append(out, f.Seq, f.Command)
	return append(out, f.Payload...), nil
}

// ParseZCLFrame decodes a ZCL frame.
func ParseZCLFrame(data []byte) (*ZCLFrame, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("zigbee: ZCL frame too short (%d bytes)", len(data))
	}
	fcf := data[0]
	if fcf&^zclFCFBits != 0 {
		return nil, fmt.Errorf("zigbee: unsupported ZCL frame control %#02x", fcf)
	}
	f := &ZCLFrame{
		Type:                   ZCLFrameType(fcf & 0x3),
		Direction:              fcf&(1<<3) != 0,
		DisableDefaultResponse: fcf&(1<<4) != 0,
	}
	if f.Type > ZCLClusterSpecific {
		return nil, fmt.Errorf("zigbee: invalid ZCL frame type %d", f.Type)
	}
	off := 1
	if fcf&(1<<2) != 0 {
		if len(data) < 5 {
			return nil, fmt.Errorf("zigbee: truncated manufacturer code")
		}
		code := binary.LittleEndian.Uint16(data[1:3])
		f.ManufacturerCode = &code
		off = 3
	}
	if len(data) < off+2 {
		return nil, fmt.Errorf("zigbee: truncated ZCL header")
	}
	f.Seq = data[off]
	f.Command = data[off+1]
	f.Payload = append([]byte{}, data[off+2:]...)
	return f, nil
}

// BuildOnOffCommand builds the full NWK/APS/ZCL stack for an On/Off
// cluster command (the smart-lamp attack payload).
func BuildOnOffCommand(nwkSeq, apsCounter, zclSeq uint8, dest, src uint16, command uint8) ([]byte, error) {
	if command > OnOffCmdToggle {
		return nil, fmt.Errorf("zigbee: invalid on/off command %#02x", command)
	}
	zcl := &ZCLFrame{
		Type:                   ZCLClusterSpecific,
		DisableDefaultResponse: true,
		Seq:                    zclSeq,
		Command:                command,
	}
	payload, err := zcl.Encode()
	if err != nil {
		return nil, err
	}
	return buildClusterFrame(nwkSeq, apsCounter, dest, src, ClusterOnOff, payload)
}

// BuildTemperatureReport builds a temperature-measurement attribute
// report (centi-degrees Celsius), the payload of a sensor node.
func BuildTemperatureReport(nwkSeq, apsCounter, zclSeq uint8, dest, src uint16, centiCelsius int16) ([]byte, error) {
	attr := make([]byte, 0, 5)
	attr = binary.LittleEndian.AppendUint16(attr, 0x0000) // MeasuredValue
	attr = append(attr, ZCLTypeInt16)
	attr = binary.LittleEndian.AppendUint16(attr, uint16(centiCelsius))
	zcl := &ZCLFrame{
		Type:    ZCLProfileWide,
		Seq:     zclSeq,
		Command: ZCLCmdReportAttributes,
		Payload: attr,
	}
	payload, err := zcl.Encode()
	if err != nil {
		return nil, err
	}
	return buildClusterFrame(nwkSeq, apsCounter, dest, src, ClusterTemperature, payload)
}

func buildClusterFrame(nwkSeq, apsCounter uint8, dest, src uint16, cluster uint16, zcl []byte) ([]byte, error) {
	return BuildZigbeeDataFrame(nwkSeq, apsCounter, dest, src, cluster, zcl)
}

// ParseTemperatureReport extracts the centi-degree reading from a
// temperature attribute report built by BuildTemperatureReport.
func ParseTemperatureReport(zcl *ZCLFrame) (int16, error) {
	if zcl == nil || zcl.Command != ZCLCmdReportAttributes {
		return 0, fmt.Errorf("zigbee: not an attribute report")
	}
	if len(zcl.Payload) != 5 || zcl.Payload[2] != ZCLTypeInt16 {
		return 0, fmt.Errorf("zigbee: unexpected report payload % x", zcl.Payload)
	}
	if binary.LittleEndian.Uint16(zcl.Payload[0:2]) != 0x0000 {
		return 0, fmt.Errorf("zigbee: not the MeasuredValue attribute")
	}
	return int16(binary.LittleEndian.Uint16(zcl.Payload[3:5])), nil
}
