package capture

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

// FuzzPCAPRoundTrip drives the reader with arbitrary bytes (it must
// error, never panic, never over-allocate) and checks that writing any
// frame and reading it back is byte-identical on re-encode.
func FuzzPCAPRoundTrip(f *testing.F) {
	var seedBuf bytes.Buffer
	if pw, err := NewPCAPWriter(&seedBuf); err == nil {
		pw.WritePacket(time.Unix(1, 2000), []byte{0xde, 0xad})
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("EXnot a pcap at all, just prose"))
	f.Add(bytes.Repeat([]byte{0xa1}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Arbitrary input never panics the reader.
		if pr, err := NewPCAPReader(bytes.NewReader(data)); err == nil {
			for i := 0; i < 64; i++ {
				if _, _, err := pr.Next(); err != nil {
					break
				}
			}
		}

		// 2. Any frame-sized payload survives a write→read→write round
		// trip byte-identically.
		psdu := data
		if len(psdu) > 127 {
			psdu = psdu[:127]
		}
		if len(psdu) == 0 {
			return
		}
		rec := Record{At: time.Unix(1700000000, 123456000), Channel: 14, PSDU: psdu}

		var first bytes.Buffer
		pw, err := NewPCAPWriter(&first)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}

		pr, err := NewPCAPReader(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejecting our own header: %v", err)
		}
		at, got, err := pr.Next()
		if err != nil {
			t.Fatalf("rejecting our own packet: %v", err)
		}
		if !bytes.Equal(got, psdu) {
			t.Fatalf("payload changed: %x -> %x", psdu, got)
		}

		var second bytes.Buffer
		pw2, err := NewPCAPWriter(&second)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw2.WritePacket(at, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("pcap re-encode not byte-identical:\n%x\n%x", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzZEPDecode feeds the ZEP decoder arbitrary datagrams: it must
// error on corrupt input without panicking, and anything it accepts
// must re-encode into a datagram that decodes to the same frame.
func FuzzZEPDecode(f *testing.F) {
	if good, err := EncodeZEP(Record{At: time.Unix(5, 0), Channel: 14, LQI: 9, PSDU: []byte{1, 2, 3}}, 0x5742, 1); err == nil {
		f.Add(good)
	}
	f.Add([]byte{})
	f.Add([]byte{'E', 'X', 2, 2, 0, 0, 0, 1})
	f.Add([]byte("EX definitely not a capture"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, deviceID, seq, err := DecodeZEP(data)
		if err != nil {
			return
		}
		enc, err := EncodeZEP(rec, deviceID, seq)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		rec2, deviceID2, seq2, err := DecodeZEP(enc)
		if err != nil {
			t.Fatalf("re-encoded datagram does not decode: %v", err)
		}
		if deviceID2 != deviceID || seq2 != seq {
			t.Fatalf("device/seq changed: %d/%d -> %d/%d", deviceID, seq, deviceID2, seq2)
		}
		if rec2.Channel != rec.Channel || rec2.LQI != rec.LQI || !bytes.Equal(rec2.PSDU, rec.PSDU) {
			t.Fatalf("frame changed across re-encode: %+v vs %+v", rec, rec2)
		}
		// The NTP fraction floors at 2^-32 s granularity per pass.
		if d := rec2.At.Sub(rec.At); d < -2*time.Nanosecond || d > 2*time.Nanosecond {
			t.Fatalf("timestamp drifted %v", d)
		}
	})
}

// FuzzRecordRoundTrip feeds the record decoder arbitrary bytes, both
// directly and through ReadRecord as one length-prefixed body and as a
// raw stream. It must error without panicking. An accepted version-2
// record must re-encode to its own bytes, an accepted version-1 record
// must decode the same after re-encoding, and ReadRecord must accept a
// framed body exactly when UnmarshalBinary accepts it.
func FuzzRecordRoundTrip(f *testing.F) {
	v2, err := Record{
		At: time.Unix(1700000000, 5), Channel: 17, RSSIdBm: -44.5, SNRdB: 18.25, LQI: 201,
		Seq: 7, CFOHz: -37_500, SyncCorr: 0.9375, ChipErrors: 42, ChipsCompared: 1364,
		Decoder: "wazabee", PSDU: []byte{0x61, 0x88, 0x01},
	}.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	v1 := []byte{1, 0}
	v1 = binary.BigEndian.AppendUint64(v1, uint64(time.Unix(5, 0).UnixNano()))
	v1 = append(v1, 14, 200)
	v1 = binary.BigEndian.AppendUint64(v1, 0)
	v1 = binary.BigEndian.AppendUint64(v1, 0)
	v1 = append(v1, 3, 'r', 'a', 'w', 2, 0xaa, 0xbb)
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte{2})

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		err := rec.UnmarshalBinary(data)
		framed := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
		got, rerr := ReadRecord(bytes.NewReader(append(framed, data...)))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("UnmarshalBinary error %v, ReadRecord of the framed body %v", err, rerr)
		}
		if err == nil {
			enc := checkRecordRoundTrip(t, rec)
			if data[0] == recordVersion && !bytes.Equal(enc, data) {
				t.Fatalf("version-2 record re-encodes to %x, was %x", enc, data)
			}
			if genc, _ := got.MarshalBinary(); !bytes.Equal(genc, enc) {
				t.Fatalf("ReadRecord decoded %+v, UnmarshalBinary %+v", got, rec)
			}
		}
		stream := bytes.NewReader(data)
		for range 8 {
			rec, err := ReadRecord(stream)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			checkRecordRoundTrip(t, rec)
		}
	})
}

// checkRecordRoundTrip re-encodes a decoded record, decodes that again
// and fails unless both decodes encode to the same bytes; it returns the
// encoding.
func checkRecordRoundTrip(t *testing.T, rec Record) []byte {
	t.Helper()
	enc, err := rec.MarshalBinary()
	if err != nil {
		t.Fatalf("decoded record does not re-encode: %v", err)
	}
	var again Record
	if err := again.UnmarshalBinary(enc); err != nil {
		t.Fatalf("re-encoded record does not decode: %v", err)
	}
	if enc2, _ := again.MarshalBinary(); !bytes.Equal(enc2, enc) {
		t.Fatalf("record changed across re-encode: %+v vs %+v", rec, again)
	}
	return enc
}
