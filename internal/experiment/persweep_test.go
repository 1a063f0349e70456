package experiment

import (
	"context"
	"testing"

	"wazabee/internal/chip"
)

func TestRunSweepValidation(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.SNRs = nil
	if _, err := RunSweepContext(context.Background(), cfg, chip.NRF52832(), Reception); err == nil {
		t.Error("expected error for empty SNR list")
	}
	cfg = DefaultSweepConfig()
	if _, err := RunSweepContext(context.Background(), cfg, chip.NRF52832(), Side(9)); err == nil {
		t.Error("expected error for invalid side")
	}
	if _, err := RunSweepContext(context.Background(), cfg, chip.RZUSBStick(), Transmission); err == nil {
		t.Error("expected error for a chip without BLE radio")
	}
	cfg.Channel = 99
	if _, err := RunSweepContext(context.Background(), cfg, chip.NRF52832(), Reception); err == nil {
		t.Error("expected error for invalid channel")
	}
}

func TestSweepMonotoneShape(t *testing.T) {
	// PER must be high in the noise floor and (near) zero at high SNR,
	// with a knee in between — the waterfall every receiver exhibits.
	cfg := SweepConfig{
		SNRs:           []float64{0, 8, 16},
		FramesPerPoint: 12,
		SamplesPerChip: 8,
		Seed:           3,
		Channel:        14,
	}
	points, err := RunSweepContext(context.Background(), cfg, chip.CC1352R1(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].PER < 0.5 {
		t.Errorf("PER at 0 dB = %.2f, want ≥ 0.5 (below sensitivity)", points[0].PER)
	}
	if points[2].PER > 0.1 {
		t.Errorf("PER at 16 dB = %.2f, want ≤ 0.1", points[2].PER)
	}
	if points[2].PER > points[0].PER {
		t.Error("PER increased with SNR")
	}
}

func TestSweepTransmissionNeedsMoreSNRThanIdeal(t *testing.T) {
	// The Gaussian-filter approximation costs the transmission side
	// some sensitivity: at a mid-knee SNR the WazaBee TX (nRF52832,
	// m = 0.52) must show at least as many errors as the native O-QPSK
	// reception path at the same point.
	cfg := SweepConfig{
		SNRs:           []float64{7},
		FramesPerPoint: 30,
		SamplesPerChip: 8,
		Seed:           4,
		Channel:        14,
	}
	rx, err := RunSweepContext(context.Background(), cfg, chip.CC1352R1(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := RunSweepContext(context.Background(), cfg, chip.NRF52832(), Transmission)
	if err != nil {
		t.Fatal(err)
	}
	if tx[0].PER+0.05 < rx[0].PER {
		t.Errorf("WazaBee TX PER %.2f implausibly below native RX PER %.2f at the knee",
			tx[0].PER, rx[0].PER)
	}
}
