package radio

import (
	"math"
	"testing"
)

// TestVirtualSuccessProbGolden pins the frame-level success probability
// of the virtual delivery path (the frame tier on the oqpsk/native
// profile) at its edge cases — zero-length PSDU, extreme SNR at both
// ends, the adjacent-channel penalty and two mid-curve operating
// points — so any change to the underlying model shows up as a
// reviewable golden diff rather than a silent shift in every mesh
// simulation's loss rate.
//
// The goldens are probed through FrameOutcome.SuccessProb (the public
// surface), not the internal probability function, so the test
// survives the model being swapped out as long as the swap is
// deliberate and the goldens are updated alongside it.
func TestVirtualSuccessProbGolden(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := frameTier(t, m)
	cases := []struct {
		name   string
		psdu   int
		snr    float64
		rxFreq float64
		want   float64
		// tol is absolute; the extreme cases must hit their asymptote
		// exactly, the mid-curve points get a small numerical margin.
		tol float64
	}{
		// The values are the calibrated frame-tier model fitted from the
		// IQ ground truth (cmd/calibrate); refitting the table with
		// different options legitimately moves the mid-curve goldens.
		//
		// Zero-length PSDU at a healthy mesh SNR: only the PHR can
		// fail, and at 25 dB it never does.
		{"zero-length/snr25", 0, 25, 2420, 1, 0},
		// +60 dB is far beyond any chip-error regime: certain delivery.
		{"len40/snr+60", 40, 60, 2420, 1, 0},
		// -60 dB clamps to the deepest calibrated cell, where the real
		// receiver never once achieved sync: exactly zero.
		{"len40/snr-60", 40, -60, 2420, 0, 0},
		// The mesh simulator's default operating point.
		{"len40/snr25/co-channel", 40, 25, 2420, 1, 0},
		// Adjacent channel: the burst arrives 20 dB down, so 25 dB link
		// SNR lands at an effective 5 dB — mid-waterfall, where the IQ
		// chain measurably loses sync on a few percent of frames …
		{"len40/snr25/adjacent", 40, 25, 2421, 0.92840461394721263, 1e-9},
		// … and the penalty must be a strict degradation (see below).
		{"len127/snr5", 127, 5, 2420, 0.9280507407075802, 1e-9},
		{"len40/snr0", 40, 0, 2420, 0.084928025194354301, 1e-9},
		{"len40/snr8", 40, 8, 2420, 1, 1e-9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := deliverFrame(t, ch, c.psdu, 2420, c.rxFreq, Link{SNRdB: c.snr}, 1)
			if !out.InBand {
				t.Fatalf("delivery unexpectedly out of band")
			}
			if math.Abs(out.SuccessProb-c.want) > c.tol {
				t.Errorf("SuccessProb = %.17g, want %.17g (±%g)", out.SuccessProb, c.want, c.tol)
			}
		})
	}
}

// TestVirtualSuccessProbShape pins the model-independent invariants the
// golden cases rely on: probability is monotone in SNR, monotone in
// frame length (longer frames can only be likelier to fail), and the
// adjacent-channel path is never better than co-channel.
func TestVirtualSuccessProbShape(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := frameTier(t, m)
	prob := func(psdu int, snr, rxFreq float64) float64 {
		return deliverFrame(t, ch, psdu, 2420, rxFreq, Link{SNRdB: snr}, 1).SuccessProb
	}
	snrs := []float64{-60, -10, 0, 2, 5, 8, 12, 25, 60}
	for i := 1; i < len(snrs); i++ {
		lo, hi := prob(40, snrs[i-1], 2420), prob(40, snrs[i], 2420)
		if lo > hi {
			t.Errorf("success prob not monotone in SNR: p(%g)=%g > p(%g)=%g",
				snrs[i-1], lo, snrs[i], hi)
		}
	}
	for _, snr := range []float64{0, 2, 5, 8} {
		if pShort, pLong := prob(10, snr, 2420), prob(127, snr, 2420); pLong > pShort {
			t.Errorf("snr %g: longer frame more likely to deliver: len127 %g > len10 %g", snr, pLong, pShort)
		}
		if pCo, pAdj := prob(40, snr, 2420), prob(40, snr, 2421); pAdj > pCo {
			t.Errorf("snr %g: adjacent channel beats co-channel: %g > %g", snr, pAdj, pCo)
		}
	}
}
