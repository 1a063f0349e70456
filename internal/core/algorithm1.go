// Package core implements the WazaBee attack itself: the PN-sequence to
// MSK correspondence (Algorithm 1 of the paper), the Zigbee/BLE common
// channel table (Table II), and the transmission and reception primitives
// that drive a diverted BLE GFSK modem as an IEEE 802.15.4 radio.
package core

import (
	"fmt"

	"wazabee/internal/bitstream"
	"wazabee/internal/ieee802154"
)

// Constellation state tables of Algorithm 1: the I ("even") and Q ("odd")
// bit labels of the four O-QPSK constellation states, indexed by state.
var (
	evenStates = [4]byte{1, 0, 0, 1}
	oddStates  = [4]byte{1, 1, 0, 0}
)

// ConvertPNSequence is Algorithm 1 of the paper, verbatim: it re-encodes a
// 32-chip O-QPSK PN sequence as the 31-bit MSK sequence of its phase
// transitions. A counter-clockwise +π/2 phase rotation encodes as 1, a
// clockwise -π/2 rotation as 0.
func ConvertPNSequence(oqpskSequence bitstream.Bits) (bitstream.Bits, error) {
	if len(oqpskSequence) != ieee802154.ChipsPerSymbol {
		return nil, fmt.Errorf("core: PN sequence length %d, want %d", len(oqpskSequence), ieee802154.ChipsPerSymbol)
	}
	return convert(oqpskSequence), nil
}

// ConvertChipStream generalises Algorithm 1 to a whole frame: a stream of
// n chips yields the n-1 MSK bits a BLE modulator must transmit to
// reproduce the frame's O-QPSK waveform, including the transition bits at
// symbol boundaries. At least two chips are required.
func ConvertChipStream(chips bitstream.Bits) (bitstream.Bits, error) {
	if len(chips) < 2 {
		return nil, fmt.Errorf("core: chip stream length %d < 2", len(chips))
	}
	return convert(chips), nil
}

// convert runs the Algorithm 1 state machine over a chip sequence of any
// length. The state tracks the constellation position; at every chip the
// counter-clockwise neighbour state is taken when its label matches the
// chip, otherwise the clockwise neighbour. Chip parity (even chips ride
// the in-phase component, odd chips the quadrature component) selects
// which label table applies.
//
// One correction to the algorithm as printed: the paper initialises
// currentState to 0 unconditionally, which implicitly assumes the sequence
// starts with chip 0 = 1. For the eight PN sequences beginning with a 0
// chip that assumption inverts the first transition bit relative to the
// physical O-QPSK waveform (the rotation while modulating chip 1 depends
// on chip 0). Deriving the initial state from chip 0 makes the encoding
// match the waveform for all sixteen sequences — verified against the
// modulator in the package tests.
func convert(chips bitstream.Bits) bitstream.Bits {
	dst := make(bitstream.Bits, 0, len(chips)-1)
	currentState := 0
	if chips[0] == 0 {
		currentState = 1
	}
	for i := 1; i < len(chips); i++ {
		states := &evenStates
		if i%2 == 1 {
			states = &oddStates
		}
		if chips[i] == states[(currentState+1)%4] {
			currentState = (currentState + 1) % 4
			dst = append(dst, 1)
		} else {
			currentState = (currentState + 3) % 4
			dst = append(dst, 0)
		}
	}
	return dst
}

// CorrespondenceEntry is one row of the PN/MSK correspondence table the
// attack is built on.
type CorrespondenceEntry struct {
	// Symbol is the 4-bit 802.15.4 data symbol.
	Symbol int
	// PN is the 32-chip O-QPSK spreading sequence (Table I).
	PN bitstream.Bits
	// MSK is the 31-bit MSK re-encoding produced by Algorithm 1.
	MSK bitstream.Bits
}

// CorrespondenceTable builds the full 16-row PN/MSK table.
func CorrespondenceTable() ([16]CorrespondenceEntry, error) {
	var table [16]CorrespondenceEntry
	for s := 0; s < 16; s++ {
		pn, err := ieee802154.PNSequence(s)
		if err != nil {
			return table, err
		}
		msk, err := ConvertPNSequence(pn)
		if err != nil {
			return table, err
		}
		table[s] = CorrespondenceEntry{Symbol: s, PN: pn, MSK: msk}
	}
	return table, nil
}

// AccessPattern returns the 32-bit pattern a diverted BLE receiver loads
// as its Access Address to detect 802.15.4 frames: the MSK encoding of one
// preamble 0000 symbol followed by the boundary transition into the next
// preamble symbol. Because the 802.15.4 preamble is eight consecutive 0000
// symbols, this exact pattern repeats throughout the preamble.
func AccessPattern() bitstream.Bits {
	pn0, err := ieee802154.PNSequence(0)
	if err != nil {
		// Unreachable: symbol 0 is always valid.
		panic(err)
	}
	double := append(bitstream.Clone(pn0), pn0...)
	msk, err := ConvertChipStream(double)
	if err != nil {
		panic(err)
	}
	return msk[:32]
}

// AccessAddress packs AccessPattern into the 32-bit register value a BLE
// chip expects (bit 0 transmitted first).
func AccessAddress() uint32 {
	var aa uint32
	for i, b := range AccessPattern() {
		aa |= uint32(b) << uint(i)
	}
	return aa
}
