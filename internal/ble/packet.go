package ble

import (
	"fmt"

	"wazabee/internal/bitstream"
)

// Packet is a BLE link-layer packet before modulation.
type Packet struct {
	// AccessAddress identifies the connection or advertising stream.
	AccessAddress uint32
	// PDU is the link-layer protocol data unit (header + payload).
	PDU []byte
	// Channel is the RF channel index used for whitening (0..39).
	Channel int
	// Mode selects the PHY, which determines the preamble length.
	Mode Mode
	// DisableWhitening bypasses the whitening LFSR, a configuration
	// WazaBee relies on when the chip exposes it (the nRF52832 does).
	DisableWhitening bool
	// DisableCRC omits the CRC-24, used when abusing the radio as a raw
	// 2 Mbit/s modem.
	DisableCRC bool
	// CRCInit is the CRC-24 preset (0x555555 on advertising channels).
	CRCInit uint32
}

// preambleByte returns the alternating preamble octet whose first
// transmitted bit equals the LSB of the Access Address, per the core
// specification.
func preambleByte(aa uint32) byte {
	if aa&1 == 1 {
		return 0x55
	}
	return 0xaa
}

// AirBits assembles the exact on-air bit sequence of the packet: preamble,
// Access Address, then the (optionally whitened) PDU and CRC.
func (p *Packet) AirBits() (bitstream.Bits, error) {
	if err := p.check(); err != nil {
		return nil, err
	}

	var bits bitstream.Bits
	pre := preambleByte(p.AccessAddress)
	for i := 0; i < p.Mode.PreambleLength(); i++ {
		bits = append(bits, bitstream.BytesToBits([]byte{pre})...)
	}
	bits = append(bits, bitstream.Uint32ToBits(p.AccessAddress)...)

	body := make([]byte, 0, len(p.PDU)+3)
	body = append(body, p.PDU...)
	if !p.DisableCRC {
		crc := bitstream.CRC24Bytes(bitstream.CRC24(p.CRCInit, p.PDU))
		body = append(body, crc[0], crc[1], crc[2])
	}
	bodyBits := bitstream.BytesToBits(body)
	if !p.DisableWhitening {
		w, err := bitstream.NewWhitener(p.Channel)
		if err != nil {
			return nil, err
		}
		w.Apply(bodyBits)
	}
	return append(bits, bodyBits...), nil
}

// check validates the channel and PHY that AirBits and ParseAirBits
// depend on.
func (p *Packet) check() error {
	if p.Channel < 0 || p.Channel >= ChannelCount {
		return fmt.Errorf("ble: channel %d out of range", p.Channel)
	}
	_, err := p.Mode.SymbolRate()
	return err
}

// ParseAirBits reverses AirBits on a received bit stream that starts at
// the PDU (immediately after the Access Address): it de-whitens when
// whitening is enabled, extracts pduLen bytes and verifies the CRC when
// enabled. It returns the PDU and whether the CRC verified (true when CRC
// checking is disabled). It refuses a packet AirBits refuses.
func (p *Packet) ParseAirBits(bits bitstream.Bits, pduLen int) ([]byte, bool, error) {
	if err := p.check(); err != nil {
		return nil, false, err
	}
	if pduLen < 0 || pduLen > len(bits)/8 {
		return nil, false, fmt.Errorf("ble: PDU length %d does not fit a %d-bit capture", pduLen, len(bits))
	}
	total := pduLen
	if !p.DisableCRC {
		total += 3
	}
	if len(bits) < total*8 {
		return nil, false, fmt.Errorf("ble: capture too short: %d bits, need %d", len(bits), total*8)
	}
	body := bitstream.Clone(bits[:total*8])
	if !p.DisableWhitening {
		w, err := bitstream.NewWhitener(p.Channel)
		if err != nil {
			return nil, false, err
		}
		w.Apply(body)
	}
	data, err := bitstream.BitsToBytes(body)
	if err != nil {
		return nil, false, err
	}
	pdu := data[:pduLen]
	if p.DisableCRC {
		return pdu, true, nil
	}
	want := bitstream.CRC24Bytes(bitstream.CRC24(p.CRCInit, pdu))
	got := data[pduLen:]
	ok := want[0] == got[0] && want[1] == got[1] && want[2] == got[2]
	return pdu, ok, nil
}
