package ieee802154

import (
	"bytes"
	"testing"
)

// FuzzParseMACFrame hunts for panics and encode/parse asymmetries in the
// MAC frame codec fed with arbitrary PSDUs.
func FuzzParseMACFrame(f *testing.F) {
	seed, _ := NewDataFrame(1, 0x1234, 0x0042, 0x0063, []byte{1, 2, 3}, true).Encode()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, psdu []byte) {
		frame, err := ParseMACFrame(psdu)
		if err != nil {
			return
		}
		// Whatever parses must re-encode and re-parse to the same
		// frame.
		out, err := frame.Encode()
		if err != nil {
			t.Fatalf("parsed frame does not re-encode: %v", err)
		}
		back, err := ParseMACFrame(out)
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if back.Type != frame.Type || back.Seq != frame.Seq ||
			back.DestAddr != frame.DestAddr || back.SrcAddr != frame.SrcAddr ||
			!bytes.Equal(back.Payload, frame.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", frame, back)
		}
	})
}

// FuzzParsePPDU exercises the PHY frame parser.
func FuzzParsePPDU(f *testing.F) {
	ppdu, _ := NewPPDU([]byte{1, 2, 3})
	f.Add(ppdu.Bytes())
	f.Add([]byte{0, 0, 0, 0, SFD, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := ParsePPDU(raw)
		if err != nil {
			return
		}
		if len(p.PSDU) > MaxPSDULength {
			t.Fatalf("parser accepted oversized PSDU (%d)", len(p.PSDU))
		}
	})
}

// FuzzOpenFrame feeds the CCM* opener hostile ciphertexts: it must never
// panic and never authenticate garbage.
func FuzzOpenFrame(f *testing.F) {
	key := []byte("0123456789abcdef")
	nonce := Nonce(7, 1, SecEncMIC32)
	sealed, _ := SecureFrame(key, nonce, SecEncMIC32, []byte{1}, []byte("x"))
	f.Add(sealed)
	f.Fuzz(func(t *testing.T, secured []byte) {
		payload, err := OpenFrame(key, nonce, SecEncMIC32, []byte{1}, secured)
		if err != nil {
			return
		}
		// Anything that authenticates must round-trip through
		// SecureFrame to the same ciphertext.
		again, err := SecureFrame(key, nonce, SecEncMIC32, []byte{1}, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, secured) {
			t.Fatalf("authenticated ciphertext is not canonical")
		}
	})
}

// FuzzParseAssociationResponse checks that the association response
// parser never panics and that every payload it accepts is the one
// NewAssociationResponse writes for the address and status it returned.
func FuzzParseAssociationResponse(f *testing.F) {
	f.Add(NewAssociationResponse(1, 0x1234, 0x0042, 0x0063, 0).Payload)
	f.Add([]byte{byte(CmdAssociationResponse), 0xff, 0xff, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		assigned, status, err := ParseAssociationResponse(payload)
		if err != nil {
			return
		}
		if out := NewAssociationResponse(0, 0, 0, assigned, status).Payload; !bytes.Equal(out, payload) {
			t.Fatalf("association response re-encodes to % x, was % x", out, payload)
		}
	})
}
