package ble

// Enhanced ShockBurst (ESB), Nordic's proprietary protocol on the same
// GFSK radio as BLE. The nRF51822 of scenario B lacks LE 2M, so the
// paper runs WazaBee over ESB's 2 Mbit/s mode instead; this file
// implements ESB's own framing for completeness — it is also the
// protocol of the MouseJack/radiobit line of work the paper's related
// work discusses ([15]–[19]).
//
// One detail matters: unlike BLE, ESB transmits each byte most
// significant bit first, and its 9-bit packet control field forces
// bit-level (not byte-level) CRC computation.

import (
	"fmt"

	"wazabee/internal/bitstream"
)

// ESB packet size limits.
const (
	ESBMinAddress = 3
	ESBMaxAddress = 5
	ESBMaxPayload = 32
)

// ESBPacket is an Enhanced ShockBurst packet (dynamic-length mode).
type ESBPacket struct {
	// Address is the 3–5 byte pipe address, transmitted first byte
	// first, each byte MSB first.
	Address []byte
	// PID is the 2-bit packet identity used for deduplication.
	PID uint8
	// NoAck suppresses the automatic acknowledgement.
	NoAck bool
	// Payload carries up to 32 bytes.
	Payload []byte
}

// msbBits expands bytes MSB-first, the ESB on-air order.
func msbBits(data []byte) bitstream.Bits {
	out := make(bitstream.Bits, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// AirBits assembles the on-air bit sequence: preamble, address, 9-bit
// PCF (length, PID, no-ack), payload and 16-bit CRC over everything
// after the preamble.
func (p *ESBPacket) AirBits() (bitstream.Bits, error) {
	if len(p.Address) < ESBMinAddress || len(p.Address) > ESBMaxAddress {
		return nil, fmt.Errorf("ble: ESB address length %d outside [%d,%d]", len(p.Address), ESBMinAddress, ESBMaxAddress)
	}
	if len(p.Payload) > ESBMaxPayload {
		return nil, fmt.Errorf("ble: ESB payload length %d exceeds %d", len(p.Payload), ESBMaxPayload)
	}
	if p.PID > 3 {
		return nil, fmt.Errorf("ble: ESB PID %d exceeds 2 bits", p.PID)
	}

	// Preamble alternates and starts opposite to the address MSB.
	preamble := byte(0x55)
	if p.Address[0]&0x80 != 0 {
		preamble = 0xaa
	}

	bits := msbBits([]byte{preamble})
	crcRegion := msbBits(p.Address)
	// PCF: 6-bit length, 2-bit PID, 1-bit no-ack, MSB first.
	pcf := bitstream.Bits{
		byte(len(p.Payload)>>5) & 1, byte(len(p.Payload)>>4) & 1, byte(len(p.Payload)>>3) & 1,
		byte(len(p.Payload)>>2) & 1, byte(len(p.Payload)>>1) & 1, byte(len(p.Payload)) & 1,
		(p.PID >> 1) & 1, p.PID & 1,
		0,
	}
	if p.NoAck {
		pcf[8] = 1
	}
	crcRegion = append(crcRegion, pcf...)
	crcRegion = append(crcRegion, msbBits(p.Payload)...)

	crc := bitstream.CRC16CCITTBits(crcRegion, 0xffff)
	crcBits := msbBits([]byte{byte(crc >> 8), byte(crc)})

	bits = append(bits, crcRegion...)
	return append(bits, crcBits...), nil
}

// ParseESBAirBits decodes a bit stream that starts at the first address
// bit (after the receiver matched the address, like a hardware pipe
// correlator) into an ESB packet. addressLen selects the pipe address
// width. It verifies the CRC and refuses a non-binary bit, so the
// packet's AirBits reproduce the bits it read.
func ParseESBAirBits(bits bitstream.Bits, addressLen int) (*ESBPacket, error) {
	if addressLen < ESBMinAddress || addressLen > ESBMaxAddress {
		return nil, fmt.Errorf("ble: ESB address length %d outside [%d,%d]", addressLen, ESBMinAddress, ESBMaxAddress)
	}
	header := addressLen*8 + 9
	if len(bits) < header+16 {
		return nil, fmt.Errorf("ble: ESB capture too short (%d bits)", len(bits))
	}
	pcf := bits[addressLen*8 : addressLen*8+9]
	length := 0
	for _, b := range pcf[:6] {
		length = length<<1 | int(b)
	}
	if length > ESBMaxPayload {
		return nil, fmt.Errorf("ble: ESB length field %d exceeds %d", length, ESBMaxPayload)
	}
	total := header + length*8 + 16
	if len(bits) < total {
		return nil, fmt.Errorf("ble: ESB capture truncated: %d bits, need %d", len(bits), total)
	}
	for i, b := range bits[:total] {
		if b > 1 {
			return nil, fmt.Errorf("ble: ESB bit %d has non-binary value %d", i, b)
		}
	}

	wantCRC := bitstream.CRC16CCITTBits(bits[:header+length*8], 0xffff)
	gotCRC := uint16(0)
	for _, b := range bits[header+length*8 : total] {
		gotCRC = gotCRC<<1 | uint16(b)
	}
	if wantCRC != gotCRC {
		return nil, fmt.Errorf("ble: ESB CRC mismatch (%#04x != %#04x)", gotCRC, wantCRC)
	}

	pkt := &ESBPacket{
		PID:   pcf[6]<<1 | pcf[7],
		NoAck: pcf[8] == 1,
	}
	pkt.Address = packMSB(bits[:addressLen*8])
	pkt.Payload = packMSB(bits[header : header+length*8])
	return pkt, nil
}

// packMSB packs an MSB-first bit sequence into bytes (length must be a
// multiple of 8, guaranteed by the callers).
func packMSB(bits bitstream.Bits) []byte {
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		out[i/8] = out[i/8]<<1 | b
	}
	return out
}
