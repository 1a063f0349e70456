package experiment

import (
	"context"
	"math"
	"testing"

	"wazabee/internal/chip"
)

// TestTable3ShapeMatchesPaper runs the full-scale experiment (100 frames
// per channel, both chips, both sides) and asserts the qualitative claims
// of section V hold in the reproduction:
//
//  1. every average valid rate is within a few percent of the published
//     value,
//  2. the CC1352-R1 is at least as good as the nRF52832 on both sides,
//  3. the CC1352-R1 reception column contains no corrupted frames (its
//     quality gate drops marginal frames instead), and
//  4. the loss concentrates on the WiFi-overlapped channels.
func TestTable3ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Table III run")
	}
	cfg := DefaultConfig()

	results := make(map[string]*Result)
	for _, m := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		for _, side := range []Side{Reception, Transmission} {
			res, err := RunContext(context.Background(), cfg, m, side)
			if err != nil {
				t.Fatal(err)
			}
			results[m.Name+"/"+side.String()] = res

			paperAvg, ok := PaperAverageValid(m.Name, side)
			if !ok {
				t.Fatalf("no paper average for %s/%v", m.Name, side)
			}
			measured := 100 * res.ValidRate()
			if math.Abs(measured-paperAvg) > 3 {
				t.Errorf("%s/%v average valid = %.2f %%, paper %.2f %% (tolerance 3)\n%s",
					m.Name, side, measured, paperAvg, FormatComparison(res))
			}
		}
	}

	// The qualitative claim is that the CC1352-R1 is not systematically
	// worse than the nRF52832. Both columns share every noise draw (trial
	// seeds depend only on seed/channel/frame, not on the chip), so the
	// comparison is paired — but a paired tie can still land one frame
	// either way. Allow that jitter (3 of 1600 frames) instead of
	// asserting a strict inequality on a coin-flip margin.
	const orderingTolerance = 3.0 / 1600
	for _, side := range []Side{Reception, Transmission} {
		nrf := results["nRF52832/"+side.String()]
		cc := results["CC1352-R1/"+side.String()]
		if cc.ValidRate()+orderingTolerance < nrf.ValidRate() {
			t.Errorf("%v: CC1352-R1 (%.4f) worse than nRF52832 (%.4f), paper ordering violated",
				side, cc.ValidRate(), nrf.ValidRate())
		}
	}

	// CC1352-R1 reception: no corruption, like the paper's column.
	_, ccCorr, _ := results["CC1352-R1/reception"].Totals()
	if ccCorr > 2 {
		t.Errorf("CC1352-R1 reception shows %d corrupted frames, paper shows none", ccCorr)
	}

	// Losses concentrate on WiFi-overlapped channels.
	overlapped := map[int]bool{16: true, 17: true, 18: true, 19: true, 21: true, 22: true, 23: true, 24: true}
	for key, res := range results {
		lossOn, lossOff := 0, 0
		for _, row := range res.Rows {
			loss := row.Corrupted + row.NotReceived
			if overlapped[row.Channel] {
				lossOn += loss
			} else {
				lossOff += loss
			}
		}
		if lossOn <= lossOff {
			t.Errorf("%s: WiFi-overlapped loss (%d) not above clean-channel loss (%d)", key, lossOn, lossOff)
		}
	}
}
