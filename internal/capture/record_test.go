package capture

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRecordBinaryRoundTrip(t *testing.T) {
	rec := Record{
		At:      time.Unix(1700000000, 123456789),
		Channel: 14,
		RSSIdBm: -61.25,
		SNRdB:   22,
		LQI:     248,
		Decoder: "wazabee",
		PSDU:    []byte{0x61, 0x88, 0x01, 0x34, 0x12},
	}
	b, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !got.At.Equal(rec.At) {
		t.Errorf("At %v, want %v", got.At, rec.At)
	}
	if got.Channel != rec.Channel || got.LQI != rec.LQI || got.Decoder != rec.Decoder {
		t.Errorf("metadata %d/%d/%q, want %d/%d/%q",
			got.Channel, got.LQI, got.Decoder, rec.Channel, rec.LQI, rec.Decoder)
	}
	if got.RSSIdBm != rec.RSSIdBm || got.SNRdB != rec.SNRdB {
		t.Errorf("RSSI/SNR %g/%g, want %g/%g", got.RSSIdBm, got.SNRdB, rec.RSSIdBm, rec.SNRdB)
	}
	if !bytes.Equal(got.PSDU, rec.PSDU) {
		t.Errorf("PSDU %x, want %x", got.PSDU, rec.PSDU)
	}
}

func TestRecordStream(t *testing.T) {
	var buf bytes.Buffer
	want := []Record{
		{At: time.Unix(1, 0), Channel: 14, Decoder: "wazabee", PSDU: []byte{1}},
		{At: time.Unix(2, 0), Channel: 15, Decoder: "oqpsk", PSDU: bytes.Repeat([]byte{2}, 127)},
		{At: time.Unix(3, 0), Channel: 16, Decoder: "raw"},
	}
	for _, rec := range want {
		if err := WriteRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, err := ReadRecord(&buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Channel != w.Channel || got.Decoder != w.Decoder || !bytes.Equal(got.PSDU, w.PSDU) {
			t.Errorf("record %d mismatch: %+v", i, got)
		}
	}
	if _, err := ReadRecord(&buf); err != io.EOF {
		t.Errorf("drained stream returned %v, want io.EOF", err)
	}
}

func TestReadRecordRejectsCorruptStream(t *testing.T) {
	// Oversized length prefix: rejected before allocating.
	if _, err := ReadRecord(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Error("accepted a 4 GiB record length")
	}
	// Truncated body.
	if _, err := ReadRecord(bytes.NewReader([]byte{0, 0, 0, 40, 1, 2, 3})); err == nil {
		t.Error("accepted a truncated body")
	}
	// Bad version.
	var buf bytes.Buffer
	if err := WriteRecord(&buf, Record{At: time.Unix(0, 0), Channel: 14, PSDU: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // first body byte is the version
	if _, err := ReadRecord(bytes.NewReader(raw)); err == nil {
		t.Error("accepted an unknown record version")
	}
	// What MarshalBinary never writes: reserved flags, then a byte after
	// the PSDU (the length prefix grown to cover it).
	raw[4], raw[5] = recordVersion, 0x80
	if _, err := ReadRecord(bytes.NewReader(raw)); err == nil {
		t.Error("accepted set reserved flags")
	}
	raw[5] = 0
	raw[3]++
	if _, err := ReadRecord(bytes.NewReader(append(raw, 0))); err == nil {
		t.Error("accepted a byte after the PSDU")
	}
}

func TestMarshalRejectsInvalidRecords(t *testing.T) {
	if _, err := (Record{Channel: -1}).MarshalBinary(); err == nil {
		t.Error("marshalled a negative channel")
	}
	if _, err := (Record{PSDU: make([]byte, 300)}).MarshalBinary(); err == nil {
		t.Error("marshalled an oversized PSDU")
	}
}

func TestRecordV2RoundTripLinkFields(t *testing.T) {
	rec := Record{
		At:            time.Unix(1700000000, 0),
		Channel:       17,
		RSSIdBm:       -44.5,
		SNRdB:         18.25,
		LQI:           201,
		Seq:           0xdeadbeef,
		CFOHz:         -37_500,
		SyncCorr:      0.9375,
		ChipErrors:    42,
		ChipsCompared: 1364,
		Decoder:       "wazabee",
		PSDU:          []byte{0x61, 0x88, 0x01},
	}
	b, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Seq != rec.Seq {
		t.Errorf("Seq %#x, want %#x", got.Seq, rec.Seq)
	}
	if got.CFOHz != rec.CFOHz || got.SyncCorr != rec.SyncCorr {
		t.Errorf("CFO/corr %g/%g, want %g/%g", got.CFOHz, got.SyncCorr, rec.CFOHz, rec.SyncCorr)
	}
	if got.ChipErrors != rec.ChipErrors || got.ChipsCompared != rec.ChipsCompared {
		t.Errorf("chip evidence %d/%d, want %d/%d",
			got.ChipErrors, got.ChipsCompared, rec.ChipErrors, rec.ChipsCompared)
	}
}

// TestRecordV1Decode hand-encodes the 28-byte version-1 layout and checks
// the reader still accepts it, with the version-2 link fields zero — old
// capture streams stay replayable.
func TestRecordV1Decode(t *testing.T) {
	b := []byte{1, 0} // version 1, flags
	b = binary.BigEndian.AppendUint64(b, uint64(time.Unix(5, 0).UnixNano()))
	b = append(b, 14, 200) // channel, lqi
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(-61.0))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(12.5))
	b = append(b, 3)
	b = append(b, "raw"...)
	b = append(b, 2, 0xaa, 0xbb)

	var rec Record
	if err := rec.UnmarshalBinary(b); err != nil {
		t.Fatalf("version-1 record rejected: %v", err)
	}
	if rec.Channel != 14 || rec.LQI != 200 || rec.Decoder != "raw" {
		t.Errorf("metadata %d/%d/%q", rec.Channel, rec.LQI, rec.Decoder)
	}
	if rec.RSSIdBm != -61.0 || rec.SNRdB != 12.5 {
		t.Errorf("RSSI/SNR %g/%g", rec.RSSIdBm, rec.SNRdB)
	}
	if !bytes.Equal(rec.PSDU, []byte{0xaa, 0xbb}) {
		t.Errorf("PSDU %x", rec.PSDU)
	}
	if rec.Seq != 0 || rec.CFOHz != 0 || rec.SyncCorr != 0 ||
		rec.ChipErrors != 0 || rec.ChipsCompared != 0 {
		t.Errorf("version-1 record carries non-zero link fields: %+v", rec)
	}
}

func TestRecordRejectsFutureVersion(t *testing.T) {
	rec := Record{At: time.Unix(0, 0), Channel: 14, Decoder: "wazabee", PSDU: []byte{1}}
	b, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 3 // a version this reader does not know
	var got Record
	err = got.UnmarshalBinary(b)
	if err == nil {
		t.Fatal("accepted a version-3 record")
	}
	if !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "max 2") {
		t.Errorf("rejection error %q does not name the versions", err)
	}
}
