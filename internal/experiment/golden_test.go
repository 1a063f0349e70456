package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/obs"
	oblink "wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// The golden test pins the IQ experiments' observable output as a
// literal: every Table III tally on all three fidelity tiers, both
// diverted chips and both sides, the link aggregator's per-channel
// summary of every IQ column, and the PER sweep on the IQ and symbol
// tiers. The determinism tests only compare two runs of the same code;
// this one catches a change that alters an experiment consistently. A
// change meant to be exact (the modem pairs, the link budget, the seed
// derivation) must keep the digest; one that changes a model on purpose
// must re-pin it and say why.

// experimentGoldenSHA256 is the SHA-256 of renderExperimentGolden's text.
const experimentGoldenSHA256 = "afd9421f22dc8c4ad2ed82db4a71fdad255b06f1e0431e7a1beb1b2d0c2b31dc"

// renderExperimentGolden runs every pinned experiment on one worker, so
// the aggregators see frames in a fixed order, and renders the results
// with exact float formatting.
func renderExperimentGolden(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	models := []chip.Model{chip.NRF52832(), chip.CC1352R1()}
	sides := []Side{Reception, Transmission}
	for _, fid := range []radio.Fidelity{radio.FidelityIQ, radio.FidelitySymbol, radio.FidelityFrame} {
		for _, model := range models {
			for _, side := range sides {
				cfg := DefaultConfig()
				cfg.FramesPerChannel = 4
				cfg.Seed = 1
				cfg.WiFi = true
				cfg.Workers = 1
				cfg.Fidelity = fid
				cfg.Obs = obs.NewRegistry()
				if fid == radio.FidelityIQ {
					cfg.Link = oblink.NewAggregator(obs.NewRegistry())
				}
				res, err := RunContext(ctx, cfg, model, side)
				if err != nil {
					t.Fatalf("table3 %v %s/%s: %v", fid, model.Name, side, err)
				}
				fmt.Fprintf(&b, "table3 %v %s/%s\n", fid, res.Chip, res.Side)
				for _, row := range res.Rows {
					fmt.Fprintf(&b, "  ch%d %d %d %d\n", row.Channel, row.Valid, row.Corrupted, row.NotReceived)
				}
				if cfg.Link != nil {
					for _, s := range cfg.Link.Snapshot() {
						fmt.Fprintf(&b, "  link %+v\n", s)
					}
				}
			}
		}
	}
	for _, fid := range []radio.Fidelity{radio.FidelityIQ, radio.FidelitySymbol} {
		for _, model := range models {
			for _, side := range sides {
				cfg := SweepConfig{
					SNRs:           []float64{2, 5, 8},
					FramesPerPoint: 8,
					SamplesPerChip: 8,
					Workers:        1,
					Seed:           1,
					Channel:        zigbee.DefaultChannel,
					Obs:            obs.NewRegistry(),
					Fidelity:       fid,
				}
				points, err := RunSweepContext(ctx, cfg, model, side)
				if err != nil {
					t.Fatalf("sweep %v %s/%s: %v", fid, model.Name, side, err)
				}
				fmt.Fprintf(&b, "sweep %v %s/%s\n", fid, model.Name, side)
				for _, p := range points {
					fmt.Fprintf(&b, "  %+v\n", p)
				}
			}
		}
	}
	return b.String()
}

func TestExperimentGolden(t *testing.T) {
	text := renderExperimentGolden(t)
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != experimentGoldenSHA256 {
		t.Errorf("experiment golden sha256 = %q, want %q\nrendering:\n%s", got, experimentGoldenSHA256, text)
	}
}
