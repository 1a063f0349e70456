package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesToBitsLSBFirst(t *testing.T) {
	tests := []struct {
		name string
		give []byte
		want string
	}{
		{name: "zero", give: []byte{0x00}, want: "00000000"},
		{name: "one", give: []byte{0x01}, want: "10000000"},
		{name: "preamble55", give: []byte{0x55}, want: "10101010"},
		{name: "preambleAA", give: []byte{0xaa}, want: "01010101"},
		{name: "two bytes", give: []byte{0x0f, 0xf0}, want: "1111000000001111"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := BytesToBits(tt.give).String()
			if got != tt.want {
				t.Errorf("BytesToBits(%x) = %s, want %s", tt.give, got, tt.want)
			}
		})
	}
}

func TestBitsToBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		got, err := BitsToBytes(BytesToBits(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesErrors(t *testing.T) {
	if _, err := BitsToBytes(make(Bits, 7)); err == nil {
		t.Error("expected error for non-multiple-of-8 length")
	}
	if _, err := BitsToBytes(Bits{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("expected error for non-binary bit value")
	}
}

func TestUint32ToBits(t *testing.T) {
	got := Uint32ToBits(0x8e89bed6) // BLE advertising Access Address
	want := BytesToBits([]byte{0xd6, 0xbe, 0x89, 0x8e})
	if got.String() != want.String() {
		t.Errorf("Uint32ToBits = %s, want %s", got, want)
	}
}

func TestHammingDistance(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want int
	}{
		{name: "equal", a: "1010", b: "1010", want: 0},
		{name: "one flip", a: "1010", b: "1110", want: 1},
		{name: "all flipped", a: "0000", b: "1111", want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, _ := ParseBits(tt.a)
			b, _ := ParseBits(tt.b)
			got, err := HammingDistance(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("HammingDistance(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
	if _, err := HammingDistance(make(Bits, 3), make(Bits, 4)); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestXorInvertClone(t *testing.T) {
	a, _ := ParseBits("1100")
	b, _ := ParseBits("1010")
	got, err := Xor(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "0110" {
		t.Errorf("Xor = %s, want 0110", got)
	}
	if Invert(a).String() != "0011" {
		t.Errorf("Invert = %s, want 0011", Invert(a))
	}
	c := Clone(a)
	c[0] = 0
	if a[0] != 1 {
		t.Error("Clone aliases its input")
	}
	if _, err := Xor(make(Bits, 1), make(Bits, 2)); err == nil {
		t.Error("expected length-mismatch error from Xor")
	}
}

func TestParseBits(t *testing.T) {
	got, err := ParseBits("10 01")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "1001" {
		t.Errorf("ParseBits = %s, want 1001", got)
	}
	if _, err := ParseBits("10x1"); err == nil {
		t.Error("expected error for invalid character")
	}
}

func TestWhitenerSelfInverse(t *testing.T) {
	for channel := 0; channel <= 39; channel++ {
		data := make([]byte, 64)
		rnd := rand.New(rand.NewSource(int64(channel)))
		rnd.Read(data)

		once, err := WhitenBytes(channel, data)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(once, data) {
			t.Fatalf("channel %d: whitening is a no-op", channel)
		}
		twice, err := WhitenBytes(channel, once)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(twice, data) {
			t.Fatalf("channel %d: whitening is not self-inverse", channel)
		}
	}
}

func TestWhitenerPeriod(t *testing.T) {
	// x^7 + x^4 + 1 is primitive, so the whitening sequence must have
	// period 127.
	w, err := NewWhitener(23)
	if err != nil {
		t.Fatal(err)
	}
	seq := make(Bits, 254)
	for i := range seq {
		seq[i] = w.NextBit()
	}
	if seq[:127].String() != seq[127:].String() {
		t.Error("whitening sequence does not repeat with period 127")
	}
	// And it must not repeat with any smaller period dividing 127 (127 is
	// prime, so only period 1 could be smaller).
	allSame := true
	for _, b := range seq[:127] {
		if b != seq[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("whitening sequence is constant")
	}
}

func TestWhitenerChannelSeed(t *testing.T) {
	// Different channels must produce different whitening sequences
	// (they are shifts of the same m-sequence).
	s8, err := WhitenSequence(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	s9, err := WhitenSequence(9, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s8.String() == s9.String() {
		t.Error("channels 8 and 9 produced identical whitening sequences")
	}
}

func TestWhitenerFirstBits(t *testing.T) {
	// Hand-computed first outputs for channel 37 (seed: pos0=1, pos1..6
	// = 100101): state bits p6..p0 = 1010011. The first output is p6 = 1.
	w, err := NewWhitener(37)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.NextBit(); got != 1 {
		t.Errorf("first whitening bit for channel 37 = %d, want 1", got)
	}
}

func TestNewWhitenerRange(t *testing.T) {
	if _, err := NewWhitener(-1); err == nil {
		t.Error("expected error for channel -1")
	}
	if _, err := NewWhitener(40); err == nil {
		t.Error("expected error for channel 40")
	}
}

func TestFCS16KnownVector(t *testing.T) {
	// CRC-16/KERMIT check value: CRC("123456789") = 0x2189.
	if got := FCS16([]byte("123456789")); got != 0x2189 {
		t.Errorf("FCS16 check = %#04x, want 0x2189", got)
	}
}

// fcs16BitSerial is the bit-at-a-time definition of the FCS, kept as
// the reference the table-driven FCS16 must match.
func fcs16BitSerial(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ 0x8408
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

func TestFCS16MatchesBitSerial(t *testing.T) {
	for b := 0; b < 256; b++ {
		in := []byte{byte(b)}
		if got, want := FCS16(in), fcs16BitSerial(in); got != want {
			t.Fatalf("FCS16(%#02x) = %#04x, bit-serial %#04x", b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		frame := make([]byte, rng.Intn(128))
		rng.Read(frame)
		if got, want := FCS16(frame), fcs16BitSerial(frame); got != want {
			t.Fatalf("FCS16 of %d-byte frame %x = %#04x, bit-serial %#04x", len(frame), frame, got, want)
		}
	}
}

func TestFCSAppendCheckRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		fcs := FCS16Bytes(FCS16(payload))
		frame := append(append([]byte{}, payload...), fcs[0], fcs[1])
		return CheckFCS(frame)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckFCSRejectsCorruption(t *testing.T) {
	payload := []byte{0x01, 0x02, 0x03, 0x04}
	fcs := FCS16Bytes(FCS16(payload))
	frame := append(append([]byte{}, payload...), fcs[0], fcs[1])
	for i := range frame {
		bad := append([]byte{}, frame...)
		bad[i] ^= 0x10
		if CheckFCS(bad) {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
	if CheckFCS([]byte{0x01}) {
		t.Error("CheckFCS accepted a frame shorter than the FCS")
	}
}

func TestCRC24Deterministic(t *testing.T) {
	data := []byte{0x40, 0x10, 0x01, 0x02, 0x03}
	a := CRC24(BLEAdvCRCInit, data)
	b := CRC24(BLEAdvCRCInit, data)
	if a != b {
		t.Error("CRC24 is not deterministic")
	}
	if a&0xff000000 != 0 {
		t.Errorf("CRC24 state %#x exceeds 24 bits", a)
	}
}

func TestCRC24DetectsBitflips(t *testing.T) {
	data := make([]byte, 32)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(data)
	ref := CRC24(BLEAdvCRCInit, data)
	for i := 0; i < len(data)*8; i++ {
		bad := append([]byte{}, data...)
		bad[i/8] ^= 1 << uint(i%8)
		if CRC24(BLEAdvCRCInit, bad) == ref {
			t.Errorf("single bitflip at bit %d not detected", i)
		}
	}
}

func TestCRC24InitMatters(t *testing.T) {
	data := []byte{1, 2, 3}
	if CRC24(BLEAdvCRCInit, data) == CRC24(0x123456, data) {
		t.Error("different CRC presets produced identical CRCs")
	}
}

func TestCRC24Bytes(t *testing.T) {
	got := CRC24Bytes(0x123456)
	want := [3]byte{0x56, 0x34, 0x12}
	if got != want {
		t.Errorf("CRC24Bytes = %v, want %v", got, want)
	}
}

func TestCRC16CCITTBitsKnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE check value: CRC("123456789") = 0x29B1 with
	// init 0xFFFF, processing bytes MSB first.
	data := []byte("123456789")
	var bits Bits
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	if got := CRC16CCITTBits(bits, 0xffff); got != 0x29b1 {
		t.Errorf("CRC-16/CCITT-FALSE check = %#04x, want 0x29b1", got)
	}
}

func TestCRC16CCITTBitsOddLength(t *testing.T) {
	// Bit-level CRCs must handle non-byte-aligned input (ESB's 9-bit
	// packet control field).
	bits, _ := ParseBits("110100110")
	a := CRC16CCITTBits(bits, 0xffff)
	bits[8] ^= 1
	b := CRC16CCITTBits(bits, 0xffff)
	if a == b {
		t.Error("flipping the 9th bit did not change the CRC")
	}
}

func TestFCS16Bytes(t *testing.T) {
	got := FCS16Bytes(0xbeef)
	want := [2]byte{0xef, 0xbe}
	if got != want {
		t.Errorf("FCS16Bytes = %v, want %v", got, want)
	}
}
