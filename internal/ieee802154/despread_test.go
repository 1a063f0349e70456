package ieee802154

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"wazabee/internal/bitstream"
)

// frameTransitions builds the MSK transition stream of a spread PPDU —
// the bit stream a synchronised receiver hands the despreader.
func frameTransitions(t *testing.T, psdu []byte) bitstream.Bits {
	t.Helper()
	ppdu, err := NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	return ChipTransitions(Spread(ppdu.Bytes()))
}

// TestDecodePPDUFromTransitionsCleanFrame: the full transition stream
// of a frame decodes to its PSDU at chip distance 0, spanning every
// transition.
func TestDecodePPDUFromTransitionsCleanFrame(t *testing.T) {
	psdu := []byte{0x41, 0x88, 0x2a, 0x34, 0x12, 0xff, 0x0f, 0x42, 0x99}
	bits := frameTransitions(t, psdu)
	dem, err := DecodePPDUFromTransitions(bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	// N symbols are 32N chips and 32N-1 transitions.
	if !bytes.Equal(dem.PPDU.PSDU, psdu) || dem.WorstChipDistance != 0 || dem.TransitionSpan != len(bits)+1 {
		t.Fatalf("clean decode %+v, want PSDU % x at distance 0 spanning %d", dem, psdu, len(bits)+1)
	}
}

// TestDecodePPDUFromTransitionsTruncation: every prefix shorter than a
// frame's transition stream is a truncated capture, reported as
// ErrNoSync.
func TestDecodePPDUFromTransitionsTruncation(t *testing.T) {
	psdu := []byte{0x41, 0x88, 0x2a, 0x34, 0x12, 0xff, 0x0f, 0x42, 0x99}
	bits := frameTransitions(t, psdu)
	for n := 0; n < len(bits); n++ {
		dem, err := DecodePPDUFromTransitions(bits[:n], 0)
		if dem != nil || !errors.Is(err, ErrNoSync) {
			t.Fatalf("prefix of %d/%d transitions: %v, %v; want ErrNoSync", n, len(bits), dem, err)
		}
	}
}

// TestDecodePPDUFromTransitionsNoSFD: all-zero transitions never show
// the SFD inside the preamble window.
func TestDecodePPDUFromTransitionsNoSFD(t *testing.T) {
	dem, err := DecodePPDUFromTransitions(make(bitstream.Bits, 4096), 0)
	if dem != nil || !errors.Is(err, ErrNoSync) {
		t.Fatalf("zero transitions: %v, %v; want ErrNoSync", dem, err)
	}
}

// TestDecodePPDUFromTransitionsOversizedPHR: a frame-length octet above
// aMaxPHYPacketSize aborts the decode.
func TestDecodePPDUFromTransitionsOversizedPHR(t *testing.T) {
	for _, phr := range []byte{MaxPSDULength + 1, 0xff} {
		raw := append(make([]byte, PreambleLength), SFD, phr)
		raw = append(raw, make([]byte, phr)...)
		dem, err := DecodePPDUFromTransitions(ChipTransitions(Spread(raw)), 0)
		if dem != nil || !errors.Is(err, ErrNoSync) {
			t.Fatalf("PHR %d: %v, %v; want ErrNoSync", phr, dem, err)
		}
	}
}

// TestDecodePPDUFromTransitionsOffset: decoding at pos k is decoding
// bits[k:] at 0 — clean or with chip errors, decoded or not, with the
// same PSDU, distance evidence and error text.
func TestDecodePPDUFromTransitionsOffset(t *testing.T) {
	psdu := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	base := frameTransitions(t, psdu)
	rnd := rand.New(rand.NewSource(3))
	decoded, aborted := 0, 0
	for trial := 0; trial < 40; trial++ {
		bits := bitstream.Clone(base)
		// Trial 0 stays clean; trial n carries 8n chip errors, enough
		// that the later ones abort.
		for i := 0; i < 8*trial; i++ {
			bits[rnd.Intn(len(bits))] ^= 1
		}
		want, wantErr := DecodePPDUFromTransitions(bits, 0)

		k := rnd.Intn(200)
		shifted := make(bitstream.Bits, k, k+len(bits))
		for i := range shifted {
			shifted[i] = byte(rnd.Intn(2))
		}
		shifted = append(shifted, bits...)
		got, err := DecodePPDUFromTransitions(shifted, k)

		if (wantErr == nil) != (err == nil) {
			t.Fatalf("trial %d, pos %d: err %v, at pos 0 %v", trial, k, err, wantErr)
		}
		if wantErr != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("trial %d, pos %d: error %q, at pos 0 %q", trial, k, err, wantErr)
			}
			aborted++
			continue
		}
		decoded++
		if !bytes.Equal(got.PPDU.PSDU, want.PPDU.PSDU) ||
			got.WorstChipDistance != want.WorstChipDistance ||
			got.TotalChipDistance != want.TotalChipDistance ||
			got.SymbolCount != want.SymbolCount ||
			got.ChipDistHist != want.ChipDistHist ||
			got.TransitionSpan != want.TransitionSpan {
			t.Fatalf("trial %d, pos %d: %+v, at pos 0 %+v", trial, k, got, want)
		}
	}
	if decoded == 0 || aborted == 0 {
		t.Errorf("%d trials decoded and %d aborted; the test needs both", decoded, aborted)
	}
}
