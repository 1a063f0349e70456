package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// goldenCapture is a small decodable capture: an FCS-sealed empty-payload
// PSDU modulated with the legitimate O-QPSK PHY and padded with silence.
func goldenCapture(t *testing.T) dsp.IQ {
	t.Helper()
	sig := oqpskFrame(t, testPSDU(t, nil))
	padded, err := sig.Pad(200, 100)
	if err != nil {
		t.Fatal(err)
	}
	return padded
}

// newTestReceiver builds a WazaBee receiver reporting to a fresh
// registry.
func newTestReceiver(t *testing.T) (*Receiver, *obs.Registry) {
	t.Helper()
	rx, err := NewReceiver(blePHY(t, ble.LE2M))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rx.Obs = reg
	return rx, reg
}

// TestReceiveErrorPaths pins the "not received" verdicts: each one's
// error text (which the IQ goldens hash), its ErrNoSync chain, its stats
// record and the counter it bumps.
func TestReceiveErrorPaths(t *testing.T) {
	noise, err := dsp.NoiseFloor(8000, 0.01, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenCapture(t)
	const noAccessAddress = "core: access address correlation: ieee802154: no preamble synchronisation: ble: access address not found"

	cases := []struct {
		name    string
		sig     dsp.IQ
		err     string
		synced  bool
		counter string
	}{
		// Noise only: the ErrNoSync + ErrNoAccessAddress chain.
		{"no_sync_noise", noise, noAccessAddress, false, "wazabee_sync_failures_total"},
		// Shorter than the pattern plus two symbols of slack: refused
		// before correlating.
		{"too_short", golden[:200], noAccessAddress, false, "wazabee_sync_failures_total"},
		// Truncated mid-frame: sync succeeds, despreading runs out of
		// bits.
		{"truncated", golden[:len(golden)-2000], "core: despread after sync: ieee802154: no preamble synchronisation", true, "wazabee_despread_failures_total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rx, reg := newTestReceiver(t)
			dem, st, err := rx.ReceiveStats(tc.sig)
			if dem != nil || err == nil || err.Error() != tc.err {
				t.Fatalf("ReceiveStats = %v, %v; want error %q", dem, err, tc.err)
			}
			if !errors.Is(err, ieee802154.ErrNoSync) {
				t.Errorf("error %v does not wrap ErrNoSync", err)
			}
			if got := errors.Is(err, ble.ErrNoAccessAddress); got == tc.synced {
				t.Errorf("error %v: ErrNoAccessAddress in chain = %v, want %v", err, got, !tc.synced)
			}
			if st == nil || st.Synced != tc.synced || st.Decoded || st.Gated {
				t.Fatalf("stats %+v, want Synced %v and neither decoded nor gated", st, tc.synced)
			}
			if got := reg.Counter(tc.counter, "decoder", "wazabee").Value(); got != 1 {
				t.Errorf("%s = %d, want 1", tc.counter, got)
			}
		})
	}
}

// TestReceiveQualityGateOnlyChangesVerdict: a frame the chip-distance
// gate drops carries the same link evidence as the decode of the same
// capture with the gate off; only the verdict differs.
func TestReceiveQualityGateOnlyChangesVerdict(t *testing.T) {
	clean := oqpskFrame(t, testPSDU(t, []byte{0x41, 0x88, 0x2a, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x07}))
	for seed := int64(1); seed <= 30; seed++ {
		sig := clean.Clone()
		if err := dsp.AddAWGN(sig, 6, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		padded, err := sig.Pad(200, 200)
		if err != nil {
			t.Fatal(err)
		}
		gated, _ := newTestReceiver(t)
		gated.MaxChipDistance = 1
		_, gst, gerr := gated.ReceiveStats(padded)
		if gerr == nil || !gst.Gated {
			continue // this seed decoded cleanly or lost sync; try the next
		}
		want := fmt.Sprintf("core: worst chip distance %d exceeds gate 1: ieee802154: no preamble synchronisation", gst.WorstChipDistance)
		if gerr.Error() != want {
			t.Errorf("gate error %q, want %q", gerr, want)
		}

		open, _ := newTestReceiver(t)
		open.MaxChipDistance = 0
		dem, st, err := open.ReceiveStats(padded)
		if err != nil {
			t.Fatalf("seed %d: ungated receive failed: %v", seed, err)
		}
		if !st.Decoded || dem.Link != st {
			t.Fatalf("ungated stats %+v not attached to a decoded frame", st)
		}
		verdict := *gst
		verdict.Gated, verdict.Decoded, verdict.FCSOK = false, true, st.FCSOK
		if verdict != *st {
			t.Errorf("gated evidence differs from the ungated decode:\n got %+v\nwant %+v", verdict, *st)
		}
		return
	}
	t.Fatal("no seed in 1..30 tripped the quality gate at 6 dB SNR with gate 1")
}

// TestReceiveConcurrent runs ReceiveStats and stamped ReceiveStatsAt
// calls from many goroutines on one Receiver and one registry — the
// channel fan-out of the Table III harness and the daemon. Every call
// must decode the reference PSDU, and each stamped call must observe
// exactly one demod latency. Run under -race by make racereceive.
func TestReceiveConcurrent(t *testing.T) {
	sig := goldenCapture(t)
	rx, reg := newTestReceiver(t)
	want, _, err := rx.ReceiveStats(sig)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range rounds {
				var dem *ieee802154.Demodulated
				var err error
				if g%2 == 0 {
					dem, _, err = rx.ReceiveStatsAt(time.Now(), sig)
				} else {
					dem, _, err = rx.ReceiveStats(sig)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(dem.PPDU.PSDU, want.PPDU.PSDU) {
					t.Errorf("goroutine %d: PSDU % x, want % x", g, dem.PPDU.PSDU, want.PPDU.PSDU)
				}
			}
		}(g)
	}
	wg.Wait()
	const stamped = goroutines / 2 * rounds
	if got := obs.LatencyHistogram(reg, "demod", "decoder", "wazabee").Count(); got != stamped {
		t.Errorf("demod latency observations = %d, want %d stamped calls", got, stamped)
	}
	if got := reg.Counter("wazabee_frames_received_total", "decoder", "wazabee").Value(); got != goroutines*rounds+1 {
		t.Errorf("frames received = %d, want %d", got, goroutines*rounds+1)
	}
}

// fuzzGolden lazily builds the fuzz corpus capture and its decode
// (fuzz functions may run in parallel processes; each builds its own).
var fuzzGolden struct {
	once sync.Once
	sig  dsp.IQ
	psdu []byte
	st   link.Stats
	err  error
}

func fuzzSetup() error {
	fuzzGolden.once.Do(func() {
		phy, err := ble.NewPHY(ble.LE2M, 8)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		zphy, err := ieee802154.NewPHY(8)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		payload := []byte{0x61, 0x88, 0x2a}
		fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
		ppdu, err := ieee802154.NewPPDU(append(append([]byte{}, payload...), fcs[0], fcs[1]))
		if err != nil {
			fuzzGolden.err = err
			return
		}
		sig, err := zphy.Modulate(ppdu)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		padded, err := sig.Pad(160, 90)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		rx, err := NewReceiver(phy)
		if err != nil {
			fuzzGolden.err = err
			return
		}
		rx.Obs = obs.NewRegistry()
		dem, st, rerr := rx.ReceiveStats(padded)
		if rerr != nil {
			fuzzGolden.err = rerr
			return
		}
		fuzzGolden.sig = padded
		fuzzGolden.psdu = append([]byte(nil), dem.PPDU.PSDU...)
		fuzzGolden.st = *st
	})
	return fuzzGolden.err
}

// fuzzReceive runs a fresh receiver with its own registry over sig.
func fuzzReceive(t *testing.T, sig dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error) {
	t.Helper()
	phy, err := ble.NewPHY(ble.LE2M, 8)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(phy)
	if err != nil {
		t.Fatal(err)
	}
	rx.Obs = obs.NewRegistry()
	return rx.ReceiveStats(sig)
}

// FuzzReceiveStats fuzzes the receive path from the golden capture: cut
// drops that many samples from its end (modulo its length plus one),
// and each 3-byte group of corrupt (at most eight) overwrites the sample
// at a 16-bit index with a value built from the third byte. Whatever
// the capture, the verdict must be consistent — stats never nil, an
// error exactly when not decoded and always an ErrNoSync, a decoded
// frame carrying its stats and their FCS check — and repeatable on a
// fresh receiver. The untouched capture must decode to the golden frame.
func FuzzReceiveStats(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(2000), []byte{})
	f.Add(uint16(0), []byte{0x01, 0x00, 0x7f, 0x03, 0x20, 0x80})
	f.Fuzz(func(t *testing.T, cut uint16, corrupt []byte) {
		if err := fuzzSetup(); err != nil {
			t.Skipf("golden capture unavailable: %v", err)
		}
		sig := fuzzGolden.sig.Clone()
		sig = sig[:len(sig)-int(cut)%(len(sig)+1)]
		touched := false
		for i := 0; i+3 <= len(corrupt) && i < 24 && len(sig) > 0; i += 3 {
			idx := (int(corrupt[i])<<8 | int(corrupt[i+1])) % len(sig)
			v := int8(corrupt[i+2])
			sig[idx] = complex(float64(v)/64, float64(-v)/128)
			touched = true
		}

		dem, st, err := fuzzReceive(t, sig)
		if st == nil {
			t.Fatal("nil stats")
		}
		if (err == nil) != st.Decoded {
			t.Fatalf("err %v with Decoded %v", err, st.Decoded)
		}
		if err != nil {
			if dem != nil {
				t.Fatalf("frame %+v returned with error %v", dem, err)
			}
			if !errors.Is(err, ieee802154.ErrNoSync) {
				t.Fatalf("error %v does not wrap ErrNoSync", err)
			}
		} else if dem.Link != st || st.FCSOK != bitstream.CheckFCS(dem.PPDU.PSDU) {
			t.Fatalf("decoded frame: Link %p vs stats %p, FCSOK %v", dem.Link, st, st.FCSOK)
		}

		dem2, st2, err2 := fuzzReceive(t, sig)
		if *st2 != *st || (err2 == nil) != (err == nil) || (err != nil && err2.Error() != err.Error()) {
			t.Fatalf("second receive differs: %+v, %v; first %+v, %v", *st2, err2, *st, err)
		}
		if dem != nil && !bytes.Equal(dem2.PPDU.PSDU, dem.PPDU.PSDU) {
			t.Fatalf("second receive PSDU % x, first % x", dem2.PPDU.PSDU, dem.PPDU.PSDU)
		}

		if len(sig) == len(fuzzGolden.sig) && !touched {
			if err != nil || !bytes.Equal(dem.PPDU.PSDU, fuzzGolden.psdu) || *st != fuzzGolden.st {
				t.Fatalf("untouched capture: %v, %+v; want PSDU % x with %+v", err, st, fuzzGolden.psdu, fuzzGolden.st)
			}
		}
	})
}
