package ieee802154

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"wazabee/internal/bitstream"
)

func TestPPDUBytesLayout(t *testing.T) {
	ppdu, err := NewPPDU([]byte{0xde, 0xad})
	if err != nil {
		t.Fatal(err)
	}
	got := ppdu.Bytes()
	want := []byte{0, 0, 0, 0, SFD, 2, 0xde, 0xad}
	if !bytes.Equal(got, want) {
		t.Errorf("PPDU bytes = % x, want % x", got, want)
	}
}

func TestNewPPDULength(t *testing.T) {
	if _, err := NewPPDU(make([]byte, MaxPSDULength+1)); err == nil {
		t.Error("expected error for oversized PSDU")
	}
	if _, err := NewPPDU(make([]byte, MaxPSDULength)); err != nil {
		t.Errorf("max-size PSDU rejected: %v", err)
	}
}

func TestPPDUCopiesPayload(t *testing.T) {
	payload := []byte{1, 2, 3}
	ppdu, err := NewPPDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 99
	if ppdu.PSDU[0] == 99 {
		t.Error("NewPPDU aliases caller's slice")
	}
}

func TestParsePPDURoundTrip(t *testing.T) {
	f := func(psdu []byte) bool {
		if len(psdu) > MaxPSDULength {
			psdu = psdu[:MaxPSDULength]
		}
		ppdu, err := NewPPDU(psdu)
		if err != nil {
			return false
		}
		back, err := ParsePPDU(ppdu.Bytes())
		return err == nil && bytes.Equal(back.PSDU, psdu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePPDUErrors(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{name: "truncated header", give: []byte{0, 0, 0}},
		{name: "bad preamble", give: []byte{1, 0, 0, 0, SFD, 0}},
		{name: "bad sfd", give: []byte{0, 0, 0, 0, 0x55, 0}},
		{name: "truncated psdu", give: []byte{0, 0, 0, 0, SFD, 5, 1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParsePPDU(tt.give); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

func TestParsePPDUIgnoresTrailingBytes(t *testing.T) {
	ppdu, _ := NewPPDU([]byte{0xaa})
	raw := append(ppdu.Bytes(), 0xff, 0xff)
	back, err := ParsePPDU(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.PSDU, []byte{0xaa}) {
		t.Errorf("PSDU = % x", back.PSDU)
	}
}

func TestMACFrameRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		give *MACFrame
	}{
		{name: "data intra-pan", give: NewDataFrame(7, 0x1234, 0x0042, 0x0063, []byte{0x01, 0x19}, true)},
		{name: "beacon", give: NewBeacon(3, 0x1234, 0x0042)},
		{name: "beacon request", give: NewBeaconRequest(9)},
		{name: "ack", give: NewAck(7)},
		{name: "uncompressed addressing", give: &MACFrame{
			Type: FrameData, Seq: 1,
			DestMode: AddrShort, DestPAN: 0x1111, DestAddr: 0x2222,
			SrcMode: AddrShort, SrcPAN: 0x3333, SrcAddr: 0x4444,
			Payload: []byte{5},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			psdu, err := tt.give.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseMACFrame(psdu)
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != tt.give.Type || got.Seq != tt.give.Seq {
				t.Errorf("type/seq = %v/%d, want %v/%d", got.Type, got.Seq, tt.give.Type, tt.give.Seq)
			}
			if got.DestMode != tt.give.DestMode || got.DestAddr != tt.give.DestAddr {
				t.Errorf("dest = %d/%#x, want %d/%#x", got.DestMode, got.DestAddr, tt.give.DestMode, tt.give.DestAddr)
			}
			if got.SrcMode != tt.give.SrcMode || got.SrcAddr != tt.give.SrcAddr {
				t.Errorf("src = %d/%#x, want %d/%#x", got.SrcMode, got.SrcAddr, tt.give.SrcMode, tt.give.SrcAddr)
			}
			if !bytes.Equal(got.Payload, tt.give.Payload) {
				t.Errorf("payload = % x, want % x", got.Payload, tt.give.Payload)
			}
			if got.AckRequest != tt.give.AckRequest {
				t.Error("ack-request flag lost")
			}
		})
	}
}

func TestMACFramePANCompression(t *testing.T) {
	frame := NewDataFrame(1, 0x1234, 0x0042, 0x0063, nil, false)
	psdu, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMACFrame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPAN != 0x1234 {
		t.Errorf("compressed source PAN = %#x, want dest PAN 0x1234", got.SrcPAN)
	}
	// Compressed frame must be two bytes shorter than uncompressed.
	frame.PANCompression = false
	frame.SrcPAN = 0x1234
	long, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(long) != len(psdu)+2 {
		t.Errorf("uncompressed length %d, compressed %d, want +2", len(long), len(psdu))
	}
}

func TestMACFrameEncodeErrors(t *testing.T) {
	if _, err := (&MACFrame{Type: 9}).Encode(); err == nil {
		t.Error("expected error for invalid frame type")
	}
	if _, err := (&MACFrame{Type: FrameData, PANCompression: true}).Encode(); err == nil {
		t.Error("expected error for compression without addresses")
	}
	if _, err := (&MACFrame{Type: FrameData, DestMode: 3}).Encode(); err == nil {
		t.Error("expected error for extended addressing")
	}
	big := NewDataFrame(1, 1, 2, 3, make([]byte, 125), false)
	if _, err := big.Encode(); err == nil {
		t.Error("expected error for frame exceeding aMaxPHYPacketSize")
	}
}

func TestParseMACFrameFCSError(t *testing.T) {
	psdu, err := NewDataFrame(1, 0x1234, 2, 3, []byte{42}, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	psdu[4] ^= 0xff
	_, err = ParseMACFrame(psdu)
	var fcsErr *FCSError
	if !errors.As(err, &fcsErr) {
		t.Fatalf("error = %v, want *FCSError", err)
	}
	if fcsErr.Length != len(psdu) {
		t.Errorf("FCSError length = %d, want %d", fcsErr.Length, len(psdu))
	}
}

func TestParseMACFrameTruncated(t *testing.T) {
	if _, err := ParseMACFrame([]byte{1, 2}); err == nil {
		t.Error("expected error for short PSDU")
	}
}

// TestParseMACFrameRejectsUnencodable checks that ParseMACFrame refuses,
// even under a valid FCS, what Encode could not reproduce: a PSDU longer
// than the PHY allows, a reserved frame type, and PAN ID compression
// with an address missing. FuzzParseMACFrame found all three.
func TestParseMACFrameRejectsUnencodable(t *testing.T) {
	withFCS := func(body []byte) []byte {
		fcs := bitstream.FCS16Bytes(bitstream.FCS16(body))
		return append(body, fcs[0], fcs[1])
	}
	sized := func(n int) []byte {
		body := make([]byte, n-2)
		body[0] = byte(FrameData) // no addressing fields
		return withFCS(body)
	}
	// Data frame, PAN ID compression, short destination, no source.
	compressed := withFCS([]byte{byte(FrameData) | 1<<6, byte(AddrShort) << 2, 7, 0x34, 0x12, 0x42, 0x00})
	for _, tc := range []struct {
		name string
		psdu []byte
		ok   bool
	}{
		{"127 bytes", sized(MaxPSDULength), true},
		{"128 bytes", sized(MaxPSDULength + 1), false},
		{"reserved frame type", withFCS([]byte{5, 0, 7}), false},
		{"PAN ID compression without a source", compressed, false},
	} {
		if _, err := ParseMACFrame(tc.psdu); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
		}
	}
}

func TestAssociationFramesRoundTrip(t *testing.T) {
	req := NewAssociationRequest(3, 0x1234, 0x0042, 0x8e)
	psdu, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMACFrame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcAddr != NoShortAddress {
		t.Errorf("request source = %#04x, want NoShortAddress", got.SrcAddr)
	}
	if CommandID(got.Payload[0]) != CmdAssociationRequest || got.Payload[1] != 0x8e {
		t.Errorf("request payload = % x", got.Payload)
	}

	resp := NewAssociationResponse(4, 0x1234, NoShortAddress, 0x0100, AssocStatusSuccess)
	psdu, err = resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseMACFrame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	assigned, status, err := ParseAssociationResponse(back.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if assigned != 0x0100 || status != AssocStatusSuccess {
		t.Errorf("response = %#04x/%d", assigned, status)
	}
}

func TestParseAssociationResponseErrors(t *testing.T) {
	if _, _, err := ParseAssociationResponse([]byte{1, 2}); err == nil {
		t.Error("expected error for short payload")
	}
	if _, _, err := ParseAssociationResponse([]byte{byte(CmdBeaconRequest), 0, 1, 0}); err == nil {
		t.Error("expected error for wrong command")
	}
}

func TestFrameTypeString(t *testing.T) {
	tests := []struct {
		give FrameType
		want string
	}{
		{FrameBeacon, "beacon"},
		{FrameData, "data"},
		{FrameAck, "ack"},
		{FrameCommand, "command"},
		{FrameType(6), "type(6)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("FrameType(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestChannelFrequency(t *testing.T) {
	tests := []struct {
		channel int
		want    float64
	}{
		{11, 2405}, {14, 2420}, {20, 2450}, {26, 2480},
	}
	for _, tt := range tests {
		got, err := ChannelFrequencyMHz(tt.channel)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("channel %d frequency = %g, want %g", tt.channel, got, tt.want)
		}
	}
	if _, err := ChannelFrequencyMHz(10); err == nil {
		t.Error("expected error for channel 10")
	}
	if _, err := ChannelFrequencyMHz(27); err == nil {
		t.Error("expected error for channel 27")
	}
}

func TestChannelsList(t *testing.T) {
	ch := Channels()
	if len(ch) != 16 || ch[0] != 11 || ch[15] != 26 {
		t.Errorf("Channels() = %v", ch)
	}
}
