package experiment

import (
	"context"
	"fmt"
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// TestFidelitySymbolMatchesIQ is the distribution-match gate of the
// fidelity-tier calibration: for every cell of the Table III grid (both
// chip models, both sides, all 16 Zigbee channels, WiFi interference
// on), the symbol tier's per-channel valid rate must be statistically
// indistinguishable from the IQ ground truth — their 95% Wilson score
// intervals must overlap. The symbol tier runs more frames per channel
// than the IQ tier (it is orders of magnitude cheaper), tightening its
// interval so the comparison has teeth.
func TestFidelitySymbolMatchesIQ(t *testing.T) {
	if testing.Short() {
		t.Skip("IQ ground-truth sweep is slow; skipped with -short")
	}
	const (
		iqFrames  = 24
		symFrames = 160
	)
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		for _, side := range []Side{Reception, Transmission} {
			model, side := model, side
			t.Run(fmt.Sprintf("%s/%s", model.Name, side), func(t *testing.T) {
				iqCfg := DefaultConfig()
				iqCfg.FramesPerChannel = iqFrames
				iqCfg.Obs = obs.NewRegistry()
				iqRes, err := RunContext(context.Background(), iqCfg, model, side)
				if err != nil {
					t.Fatal(err)
				}

				symCfg := DefaultConfig()
				symCfg.FramesPerChannel = symFrames
				symCfg.Fidelity = radio.FidelitySymbol
				symCfg.Obs = obs.NewRegistry()
				symRes, err := RunContext(context.Background(), symCfg, model, side)
				if err != nil {
					t.Fatal(err)
				}

				for _, iqRow := range iqRes.Rows {
					symRow, ok := symRes.Row(iqRow.Channel)
					if !ok {
						t.Fatalf("symbol tier missing channel %d", iqRow.Channel)
					}
					iqLo, iqHi := runner.Wilson(iqRow.Valid, iqRow.Frames())
					symLo, symHi := runner.Wilson(symRow.Valid, symRow.Frames())
					if iqLo > symHi || symLo > iqHi {
						t.Errorf("channel %d: symbol-tier valid rate CI [%.3f, %.3f] (n=%d) does not overlap IQ CI [%.3f, %.3f] (n=%d)",
							iqRow.Channel, symLo, symHi, symRow.Frames(), iqLo, iqHi, iqRow.Frames())
					}
				}
			})
		}
	}
}

// TestFidelityFrameTierTable3 checks the cheapest tier end to end on the
// same grid: the frame tier classifies only valid/not_received (an
// erasure is indistinguishable from a sync failure at frame
// granularity), and its per-channel valid-rate interval must still
// overlap the IQ ground truth's.
func TestFidelityFrameTierTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("IQ ground-truth sweep is slow; skipped with -short")
	}
	model, side := chip.NRF52832(), Reception
	iqCfg := DefaultConfig()
	iqCfg.FramesPerChannel = 24
	iqCfg.Obs = obs.NewRegistry()
	iqRes, err := RunContext(context.Background(), iqCfg, model, side)
	if err != nil {
		t.Fatal(err)
	}
	frCfg := DefaultConfig()
	frCfg.FramesPerChannel = 400
	frCfg.Fidelity = radio.FidelityFrame
	frCfg.Obs = obs.NewRegistry()
	frRes, err := RunContext(context.Background(), frCfg, model, side)
	if err != nil {
		t.Fatal(err)
	}
	for _, iqRow := range iqRes.Rows {
		frRow, ok := frRes.Row(iqRow.Channel)
		if !ok {
			t.Fatalf("frame tier missing channel %d", iqRow.Channel)
		}
		if frRow.Corrupted != 0 {
			t.Errorf("channel %d: frame tier reported %d corrupted frames (it cannot distinguish corruption)",
				iqRow.Channel, frRow.Corrupted)
		}
		// The frame tier folds corruption into the error mass, so
		// compare valid rates (valid vs anything-else) directly.
		iqLo, iqHi := runner.Wilson(iqRow.Valid, iqRow.Frames())
		frLo, frHi := runner.Wilson(frRow.Valid, frRow.Frames())
		if iqLo > frHi || frLo > iqHi {
			t.Errorf("channel %d: frame-tier valid rate CI [%.3f, %.3f] does not overlap IQ CI [%.3f, %.3f]",
				iqRow.Channel, frLo, frHi, iqLo, iqHi)
		}
	}
}

// TestFidelityTiersDeterministic pins the reproducibility contract on
// the calibrated tiers: identical configs produce identical tables at
// any worker count, exactly like the IQ tier.
func TestFidelityTiersDeterministic(t *testing.T) {
	for _, fid := range []radio.Fidelity{radio.FidelitySymbol, radio.FidelityFrame} {
		cfg := DefaultConfig()
		cfg.FramesPerChannel = 40
		cfg.Fidelity = fid
		cfg.Obs = obs.NewRegistry()
		a, err := RunContext(context.Background(), cfg, chip.NRF52832(), Reception)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.Workers = 3
		cfg2.Obs = obs.NewRegistry()
		b, err := RunContext(context.Background(), cfg2, chip.NRF52832(), Reception)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Rows {
			if a.Rows[i] != b.Rows[i] {
				t.Errorf("%v: rows diverge across worker counts: %+v vs %+v", fid, a.Rows[i], b.Rows[i])
			}
		}
	}
}
