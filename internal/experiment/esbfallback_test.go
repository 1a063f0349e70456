package experiment

import (
	"context"
	"testing"

	"wazabee/internal/chip"
)

// TestESBFallbackDegradedButSufficient checks the scenario B claim about
// the nRF51822: using Enhanced ShockBurst at 2 Mbit/s instead of LE 2M
// "has a direct impact on the reception quality, but it is sufficient to
// successfully conduct a complex active attack". The model's reception
// must be measurably worse than the nRF52832's yet still usable.
func TestESBFallbackDegradedButSufficient(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FramesPerChannel = 12
	cfg.WiFi = false
	cfg.SNRdB = 9 // near the knee, where front-end quality shows

	modern, err := RunContext(context.Background(), cfg, chip.NRF52832(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := RunContext(context.Background(), cfg, chip.NRF51822(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	if tracker.ValidRate() >= modern.ValidRate() {
		t.Errorf("nRF51822 (%.3f) not degraded versus nRF52832 (%.3f)",
			tracker.ValidRate(), modern.ValidRate())
	}
	if tracker.ValidRate() < 0.5 {
		t.Errorf("nRF51822 valid rate %.3f too low to run scenario B", tracker.ValidRate())
	}
}
