package ieee802154

import (
	"fmt"

	"wazabee/internal/bitstream"
)

// Spread applies direct sequence spread spectrum to a byte sequence: each
// octet is split into two 4-bit symbols (least significant nibble first)
// and every symbol is substituted by its 32-chip PN sequence.
func Spread(data []byte) bitstream.Bits {
	chips := make(bitstream.Bits, 0, len(data)*SymbolsPerByte*ChipsPerSymbol)
	for _, b := range data {
		chips = append(chips, pnTable[b&0x0f]...)
		chips = append(chips, pnTable[b>>4]...)
	}
	return chips
}

// SpreadSymbols expands a symbol sequence (values 0..15) into chips.
func SpreadSymbols(symbols []byte) (bitstream.Bits, error) {
	chips := make(bitstream.Bits, 0, len(symbols)*ChipsPerSymbol)
	for i, s := range symbols {
		if s > 15 {
			return nil, fmt.Errorf("ieee802154: symbol %d at index %d out of range", s, i)
		}
		chips = append(chips, pnTable[s]...)
	}
	return chips, nil
}

// Despread recovers the byte sequence from a chip stream using
// minimum-Hamming-distance symbol decisions. The chip stream length must be
// a whole number of bytes (64 chips each). It also reports the worst
// per-symbol chip distance observed, a quality indicator used by the
// experiment harness.
func Despread(chips bitstream.Bits) (data []byte, worstDistance int, err error) {
	chipsPerByte := SymbolsPerByte * ChipsPerSymbol
	if len(chips)%chipsPerByte != 0 {
		return nil, 0, fmt.Errorf("ieee802154: chip stream length %d is not a whole number of octets", len(chips))
	}
	data = make([]byte, 0, len(chips)/chipsPerByte)
	for i := 0; i < len(chips); i += chipsPerByte {
		lo, dLo, err := ClosestSymbol(chips[i : i+ChipsPerSymbol])
		if err != nil {
			return nil, 0, err
		}
		hi, dHi, err := ClosestSymbol(chips[i+ChipsPerSymbol : i+chipsPerByte])
		if err != nil {
			return nil, 0, err
		}
		if dLo > worstDistance {
			worstDistance = dLo
		}
		if dHi > worstDistance {
			worstDistance = dHi
		}
		data = append(data, byte(lo)|byte(hi)<<4)
	}
	return data, worstDistance, nil
}

// ChipTransitions returns the MSK transition bits of a chip stream: bit
// i-1 is 1 when the O-QPSK (half-sine) signal rotates counter-clockwise
// (+π/2) while modulating chip i, and 0 for a clockwise rotation.
//
// This is the physical-layer fact WazaBee exploits. The closed form follows
// from the half-sine pulse geometry: at even chip boundaries the signal
// sits on the Q axis and at odd boundaries on the I axis, so the rotation
// while modulating chip i is
//
//	i even: transitions[i-1] = c[i] XOR c[i-1]
//	i odd:  transitions[i-1] = NOT (c[i] XOR c[i-1])
//
// The paper derives the same mapping as a four-state machine (Algorithm 1,
// implemented verbatim in internal/core); the two are proven equivalent by
// tests there. A stream of n chips yields n-1 transition bits.
func ChipTransitions(chips bitstream.Bits) bitstream.Bits {
	if len(chips) < 2 {
		return nil
	}
	out := make(bitstream.Bits, len(chips)-1)
	for i := 1; i < len(chips); i++ {
		x := chips[i] ^ chips[i-1]
		if i%2 == 1 {
			x ^= 1
		}
		out[i-1] = x
	}
	return out
}
