package zigbee

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNWKFrameRoundTrip(t *testing.T) {
	dest := uint64(0x00124b0000000042)
	src := uint64(0x00124b0000000063)
	tests := []struct {
		name string
		give *NWKFrame
	}{
		{name: "plain data", give: &NWKFrame{
			Type: NWKData, DestAddr: 0x0042, SrcAddr: 0x0063, Radius: 30, Seq: 7,
			Payload: []byte{1, 2, 3},
		}},
		{name: "command with flags", give: &NWKFrame{
			Type: NWKCommand, DiscoverRoute: true, Security: true,
			DestAddr: 0xfffc, SrcAddr: 0x0000, Radius: 1, Seq: 200,
			Payload: []byte{0x05},
		}},
		{name: "with ieee addresses", give: &NWKFrame{
			Type: NWKData, DestAddr: 1, SrcAddr: 2, Radius: 5, Seq: 9,
			DestIEEE: &dest, SrcIEEE: &src,
			Payload: []byte{0xaa},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			raw, err := tt.give.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseNWKFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != tt.give.Type || got.DestAddr != tt.give.DestAddr || got.SrcAddr != tt.give.SrcAddr {
				t.Errorf("header mismatch: %+v", got)
			}
			if got.Radius != tt.give.Radius || got.Seq != tt.give.Seq {
				t.Errorf("radius/seq mismatch: %+v", got)
			}
			if got.Security != tt.give.Security || got.DiscoverRoute != tt.give.DiscoverRoute {
				t.Errorf("flags mismatch: %+v", got)
			}
			if (got.DestIEEE == nil) != (tt.give.DestIEEE == nil) {
				t.Fatal("DestIEEE presence mismatch")
			}
			if got.DestIEEE != nil && *got.DestIEEE != *tt.give.DestIEEE {
				t.Errorf("DestIEEE = %#x", *got.DestIEEE)
			}
			if got.SrcIEEE != nil && *got.SrcIEEE != *tt.give.SrcIEEE {
				t.Errorf("SrcIEEE = %#x", *got.SrcIEEE)
			}
			if !bytes.Equal(got.Payload, tt.give.Payload) {
				t.Errorf("payload mismatch")
			}
		})
	}
}

func TestNWKFrameErrors(t *testing.T) {
	if _, err := (&NWKFrame{Type: 3}).Encode(); err == nil {
		t.Error("expected error for invalid type")
	}
	if _, err := ParseNWKFrame([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short frame")
	}
	// Wrong protocol version.
	bad := make([]byte, 8)
	bad[0] = 0x0c // version 3
	if _, err := ParseNWKFrame(bad); err == nil {
		t.Error("expected error for protocol version")
	}
	// Truncated IEEE fields.
	frame := &NWKFrame{Type: NWKData, Payload: nil}
	addr := uint64(1)
	frame.DestIEEE = &addr
	raw, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNWKFrame(raw[:9]); err == nil {
		t.Error("expected error for truncated DestIEEE")
	}
	frame.DestIEEE = nil
	frame.SrcIEEE = &addr
	raw, err = frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNWKFrame(raw[:9]); err == nil {
		t.Error("expected error for truncated SrcIEEE")
	}
}

// TestParseRejectsUnencodedFrameControl: every frame-control bit the
// NWK, APS and ZCL encoders never write is refused, since each adds or
// reshapes header fields the parsers would otherwise misread. A
// source-routed NWK frame (bit 10) used to come back with its relay
// subframe as Payload, and APS group delivery (bits 2-3 = 0b11) with the
// group address read as DestEndpoint and ClusterID.
func TestParseRejectsUnencodedFrameControl(t *testing.T) {
	nwk, err := BuildZigbeeDataFrame(1, 2, 0x0042, 0x0063, ClusterOnOff, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	zcl, err := (&ZCLFrame{Type: ZCLClusterSpecific, Seq: 1, Command: OnOffCmdOn}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	with := func(frame []byte, byteIdx int, mask byte) []byte {
		out := append([]byte{}, frame...)
		out[byteIdx] |= mask
		return out
	}
	for _, bit := range []int{7, 8, 10, 13, 14, 15} {
		if _, err := ParseNWKFrame(with(nwk, bit/8, 1<<(bit%8))); err == nil {
			t.Errorf("NWK frame-control bit %d accepted", bit)
		}
	}
	apsRaw := nwk[8:]
	for _, bit := range []int{2, 3, 4, 5, 7} {
		if _, err := ParseAPSFrame(with(apsRaw, 0, 1<<bit)); err == nil {
			t.Errorf("APS frame-control bit %d accepted", bit)
		}
	}
	if _, err := ParseAPSFrame(with(apsRaw, 0, 0x0c)); err == nil {
		t.Error("APS group delivery accepted")
	}
	for _, bit := range []int{5, 6, 7} {
		if _, err := ParseZCLFrame(with(zcl, 0, 1<<bit)); err == nil {
			t.Errorf("ZCL frame-control bit %d accepted", bit)
		}
	}
	// The bits the encoders do write still parse.
	if _, err := ParseAPSFrame(with(apsRaw, 0, 1<<6)); err != nil {
		t.Errorf("APS ack request refused: %v", err)
	}
	if _, err := ParseNWKFrame(with(nwk, 0, 1<<6)); err != nil {
		t.Errorf("NWK discover route refused: %v", err)
	}
}

func TestAPSFrameRoundTrip(t *testing.T) {
	f := func(destEP, srcEP, counter uint8, cluster, profile uint16, payload []byte) bool {
		give := &APSFrame{
			Type:         APSData,
			AckRequest:   counter%2 == 0,
			DestEndpoint: destEP,
			ClusterID:    cluster,
			ProfileID:    profile,
			SrcEndpoint:  srcEP,
			Counter:      counter,
			Payload:      payload,
		}
		raw, err := give.Encode()
		if err != nil {
			return false
		}
		got, err := ParseAPSFrame(raw)
		if err != nil {
			return false
		}
		return got.DestEndpoint == destEP && got.SrcEndpoint == srcEP &&
			got.ClusterID == cluster && got.ProfileID == profile &&
			got.Counter == counter && got.AckRequest == give.AckRequest &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAPSFrameErrors(t *testing.T) {
	if _, err := (&APSFrame{Type: 5}).Encode(); err == nil {
		t.Error("expected error for invalid APS type")
	}
	if _, err := ParseAPSFrame([]byte{1}); err == nil {
		t.Error("expected error for short APS frame")
	}
}

func TestZigbeeDataFrameStack(t *testing.T) {
	raw, err := BuildZigbeeDataFrame(7, 3, 0x0042, 0x0063, ClusterTemperature, []byte{0x17, 0x00})
	if err != nil {
		t.Fatal(err)
	}
	nwk, aps, err := ParseZigbeeDataFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if nwk.DestAddr != 0x0042 || nwk.SrcAddr != 0x0063 || nwk.Seq != 7 {
		t.Errorf("NWK = %+v", nwk)
	}
	if aps.ClusterID != ClusterTemperature || aps.ProfileID != ProfileHomeAutomation || aps.Counter != 3 {
		t.Errorf("APS = %+v", aps)
	}
	if !bytes.Equal(aps.Payload, []byte{0x17, 0x00}) {
		t.Errorf("ZCL payload = % x", aps.Payload)
	}
}

func TestParseZigbeeDataFrameErrors(t *testing.T) {
	if _, _, err := ParseZigbeeDataFrame([]byte{1}); err == nil {
		t.Error("expected error for garbage")
	}
	cmd := &NWKFrame{Type: NWKCommand, Payload: []byte{1}}
	raw, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseZigbeeDataFrame(raw); err == nil {
		t.Error("expected error for NWK command frame")
	}
	data := &NWKFrame{Type: NWKData, Payload: []byte{1, 2}} // APS too short
	raw, err = data.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseZigbeeDataFrame(raw); err == nil {
		t.Error("expected error for truncated APS")
	}
}
