package zigbee

import (
	"bytes"
	"testing"
)

// encoder is every frame type the fuzzers round-trip.
type encoder interface {
	Encode() ([]byte, error)
}

// checkRoundTrip parses data and, when the parser accepts it, requires
// the frame to re-encode to exactly data: a parser that accepts a
// header its encoder cannot lay out has misread some field.
func checkRoundTrip[F encoder](t *testing.T, data []byte, parse func([]byte) (F, error)) {
	frame, err := parse(data)
	if err != nil {
		return
	}
	out, err := frame.Encode()
	if err != nil {
		t.Fatalf("accepted %x does not re-encode: %v", data, err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted %x re-encodes to %x", data, out)
	}
}

// mustEncode is a seed-building helper.
func mustEncode(f *testing.F, e encoder) []byte {
	f.Helper()
	b, err := e.Encode()
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func FuzzParseNWKFrame(f *testing.F) {
	dst, src := uint64(0x0123456789abcdef), uint64(0xfedcba9876543210)
	data, err := BuildZigbeeDataFrame(1, 2, 0x0042, 0x0063, ClusterOnOff, []byte{1, 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(mustEncode(f, &NWKFrame{Type: NWKCommand, DiscoverRoute: true, Security: true, DestIEEE: &dst, SrcIEEE: &src, Radius: 1, Seq: 9}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, ParseNWKFrame) })
}

func FuzzParseAPSFrame(f *testing.F) {
	f.Add(mustEncode(f, &APSFrame{Type: APSData, AckRequest: true, DestEndpoint: 1, ClusterID: ClusterOnOff, ProfileID: ProfileHomeAutomation, SrcEndpoint: 1, Counter: 7, Payload: []byte{0x11, 0x02}}))
	f.Add(mustEncode(f, &APSFrame{Type: APSAck, Counter: 7}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, ParseAPSFrame) })
}

func FuzzParseZCLFrame(f *testing.F) {
	code := uint16(0x1037)
	f.Add(mustEncode(f, &ZCLFrame{Type: ZCLClusterSpecific, DisableDefaultResponse: true, Seq: 3, Command: OnOffCmdToggle}))
	f.Add(mustEncode(f, &ZCLFrame{Type: ZCLProfileWide, ManufacturerCode: &code, Direction: true, Seq: 4, Command: ZCLCmdReportAttributes, Payload: []byte{0, 0, ZCLTypeInt16, 0x34, 0x12}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, ParseZCLFrame) })
}

func FuzzParseATCommand(f *testing.F) {
	f.Add(mustEncode(f, &ATCommand{FrameID: 1, Command: "CH", Param: []byte{0x0f}}))
	f.Add(mustEncode(f, &ATCommand{FrameID: 2, Command: "ID"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, ParseATCommand) })
}

func FuzzParseATResponse(f *testing.F) {
	f.Add(mustEncode(f, &ATResponse{FrameID: 1, Command: "CH"}))
	f.Add(mustEncode(f, &ATResponse{FrameID: 2, Command: "CH", Status: 4}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, ParseATResponse) })
}
