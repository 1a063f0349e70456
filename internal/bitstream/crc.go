package bitstream

// This file implements the two integrity codes used by the simulated
// protocols:
//
//   - the BLE link-layer CRC-24 (polynomial x^24 + x^10 + x^9 + x^6 + x^4 +
//     x^3 + x + 1, preset 0x555555 for advertising PDUs), and
//   - the IEEE 802.15.4 Frame Check Sequence, a CRC-16 with polynomial
//     x^16 + x^12 + x^5 + 1, zero preset, bit-reflected processing (the
//     CRC-16/KERMIT parameterisation).

// BLEAdvCRCInit is the CRC-24 preset used on advertising channels.
const BLEAdvCRCInit uint32 = 0x555555

// blecrcFeedback is the reflected feedback mask of the BLE CRC polynomial
// (taps x^10, x^9, x^6, x^4, x^3, x^1 mapped into a right-shifting 24-bit
// register; the x^24 term appears as the re-inserted top bit).
const blecrcFeedback uint32 = 0x5a6000

// CRC24 computes the BLE link-layer CRC over data with the given preset.
// Bits are consumed LSB first, matching on-air order. The returned value is
// the 24-bit shift-register state; serialise it with CRC24Bytes.
func CRC24(init uint32, data []byte) uint32 {
	state := init & 0xffffff
	for _, b := range data {
		cur := uint32(b)
		for j := 0; j < 8; j++ {
			nextBit := (state ^ cur) & 1
			cur >>= 1
			state >>= 1
			if nextBit == 1 {
				state |= 1 << 23
				state ^= blecrcFeedback
			}
		}
	}
	return state
}

// CRC24Bytes serialises a CRC-24 state into the three bytes appended to a
// BLE PDU, in transmission order.
func CRC24Bytes(crc uint32) [3]byte {
	return [3]byte{byte(crc), byte(crc >> 8), byte(crc >> 16)}
}

// fcsTable holds the FCS register update for each byte value: entry i
// is eight bit-serial steps of the reflected polynomial 0x8408 applied to
// a register holding i. It turns FCS16 into one lookup per byte.
var fcsTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ 0x8408
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// FCS16 computes the IEEE 802.15.4 frame check sequence over data: CRC-16
// with reflected polynomial 0x8408, zero preset, no final XOR.
func FCS16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc = crc>>8 ^ fcsTable[byte(crc)^b]
	}
	return crc
}

// FCS16Bytes serialises an FCS into the two bytes appended to a MAC frame,
// least significant byte first as the standard requires.
func FCS16Bytes(fcs uint16) [2]byte {
	return [2]byte{byte(fcs), byte(fcs >> 8)}
}

// CheckFCS verifies that frame (payload followed by a two-byte FCS) has a
// valid frame check sequence.
func CheckFCS(frame []byte) bool {
	if len(frame) < 2 {
		return false
	}
	want := uint16(frame[len(frame)-2]) | uint16(frame[len(frame)-1])<<8
	return FCS16(frame[:len(frame)-2]) == want
}

// CRC16CCITTBits computes the non-reflected CRC-16/CCITT (polynomial
// 0x1021) over a bit sequence, MSB-first per the Enhanced ShockBurst
// convention. ESB needs a bit-level CRC because its packet control field
// is nine bits long, so byte-oriented CRCs cannot cover it.
func CRC16CCITTBits(bits Bits, init uint16) uint16 {
	crc := init
	for _, b := range bits {
		top := byte(crc>>15) & 1
		crc <<= 1
		if top^(b&1) == 1 {
			crc ^= 0x1021
		}
	}
	return crc
}
