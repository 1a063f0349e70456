package ble

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wazabee/internal/bitstream"
)

// FuzzParseAuxAdvInd checks that the AUX_ADV_IND parser never panics and
// that every PDU it accepts is the one BuildAuxAdvInd writes for the
// fields it returned and the ADI it skipped.
func FuzzParseAuxAdvInd(f *testing.F) {
	good, err := BuildAuxAdvInd([6]byte{1, 2, 3, 4, 5, 6}, 3, 0x123, 0x0059, []byte{0xde, 0xad})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(make([]byte, AuxAdvIndOverhead))
	f.Fuzz(func(t *testing.T, pdu []byte) {
		advA, company, data, err := ParseAuxAdvInd(pdu)
		if err != nil {
			return
		}
		adi := binary.LittleEndian.Uint16(pdu[10:12])
		out, err := BuildAuxAdvInd(advA, uint8(adi>>12), adi&0x0fff, company, data)
		if err != nil {
			t.Fatalf("parsed AUX_ADV_IND does not re-encode: %v", err)
		}
		if !bytes.Equal(out, pdu) {
			t.Fatalf("AUX_ADV_IND re-encodes to % x, was % x", out, pdu)
		}
	})
}

// FuzzDecodeAuxPtr checks that the AuxPtr decoder never panics and that
// every ADV_EXT_IND it accepts is the one BuildAdvExtInd writes for the
// AuxPtr it returned and the ADI it skipped.
func FuzzDecodeAuxPtr(f *testing.F) {
	for _, aux := range []AuxPtr{
		{ChannelIndex: 8, OffsetUsec: 1200, PHY: LE2M},
		{ChannelIndex: 36, OffsetUsec: 300000, PHY: LE1M},
	} {
		pdu, err := BuildAdvExtInd(2, 0x0abc, aux)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pdu)
	}
	f.Fuzz(func(t *testing.T, pdu []byte) {
		aux, err := DecodeAuxPtr(pdu)
		if err != nil {
			return
		}
		adi := binary.LittleEndian.Uint16(pdu[4:6])
		out, err := BuildAdvExtInd(uint8(adi>>12), adi&0x0fff, aux)
		if err != nil {
			t.Fatalf("decoded AuxPtr %+v does not re-encode: %v", aux, err)
		}
		if !bytes.Equal(out, pdu) {
			t.Fatalf("ADV_EXT_IND re-encodes to % x, was % x", out, pdu)
		}
	})
}

// FuzzParseESBAirBits checks that the ESB parser never panics on any bit
// values or address width, and that every packet it accepts transmits,
// after its preamble, the bits it was parsed from.
func FuzzParseESBAirBits(f *testing.F) {
	pkt := &ESBPacket{Address: []byte{0xe7, 0xe7, 0xe7}, PID: 2, Payload: []byte{1, 2}}
	air, err := pkt.AirBits()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(air[8:]), 3)
	f.Add(make([]byte, 64), 5)
	f.Fuzz(func(t *testing.T, raw []byte, addressLen int) {
		bits := bitstream.Bits(raw)
		pkt, err := ParseESBAirBits(bits, addressLen)
		if err != nil {
			return
		}
		air, err := pkt.AirBits()
		if err != nil {
			t.Fatalf("parsed packet %+v does not re-encode: %v", pkt, err)
		}
		if body := air[8:]; !bytes.Equal(body, bits[:len(body)]) {
			t.Fatalf("packet re-encodes to %v, was parsed from %v", body, bits[:len(body)])
		}
	})
}

// FuzzPacketParseAirBits checks that the BLE packet parser never panics
// on any bit values, PDU length or packet settings, and that a PDU whose
// CRC verifies re-encodes, after preamble and Access Address, to the
// bits it was parsed from.
func FuzzPacketParseAirBits(f *testing.F) {
	pkt := &Packet{AccessAddress: AdvAccessAddress, PDU: []byte{0x07, 0x02, 0xde, 0xad},
		Channel: 17, Mode: LE2M, CRCInit: bitstream.BLEAdvCRCInit}
	air, err := pkt.AirBits()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(air[(2+4)*8:]), len(pkt.PDU), 17, int(LE2M), byte(0), bitstream.BLEAdvCRCInit)
	f.Add(make([]byte, 40), 5, 39, int(LE1M), byte(3), uint32(0))
	f.Fuzz(func(t *testing.T, raw []byte, pduLen, channel, mode int, flags byte, crcInit uint32) {
		p := &Packet{
			AccessAddress:    AdvAccessAddress,
			Channel:          channel,
			Mode:             Mode(mode),
			DisableWhitening: flags&1 != 0,
			DisableCRC:       flags&2 != 0,
			CRCInit:          crcInit,
		}
		bits := bitstream.Bits(raw)
		pdu, ok, err := p.ParseAirBits(bits, pduLen)
		if err != nil || !ok {
			return
		}
		p.PDU = pdu
		air, err := p.AirBits()
		if err != nil {
			t.Fatalf("parsed packet does not re-encode: %v", err)
		}
		n := 8 * len(pdu)
		if !p.DisableCRC {
			n += 24
		}
		if body := air[len(air)-n:]; !bytes.Equal(body, bits[:n]) {
			t.Fatalf("packet re-encodes to %v, was parsed from %v", body, bits[:n])
		}
	})
}
