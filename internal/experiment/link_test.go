package experiment

import (
	"context"
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/obs"
	oblink "wazabee/internal/obs/link"
)

// TestLinkAggregatorSeesWiFiDegradation runs Table III with the WiFi
// networks on and an aggressive duty cycle, and checks the per-channel
// link diagnostics separate the WiFi-overlapped Zigbee channels from the
// clean ones: mean LQI on every degraded channel must sit strictly below
// the mean LQI of every channel outside the interferers' bandwidth.
// Lost frames count as LQI 0, so the collapse shows up even when the
// surviving frames despread cleanly.
func TestLinkAggregatorSeesWiFiDegradation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FramesPerChannel = 20
	cfg.Obs = obs.NewRegistry()
	cfg.WiFi = true
	cfg.WiFiDutyCycle = 0.15
	cfg.Link = oblink.NewAggregator(cfg.Obs)

	if _, err := RunContext(context.Background(), cfg, chip.CC1352R1(), Reception); err != nil {
		t.Fatal(err)
	}

	// WiFi channels 6 and 11 (centres 2437/2462 MHz, 22 MHz wide)
	// straddle Zigbee channels 17–18 and 21–23; channels 11–14 and 26
	// sit well clear of both. Borderline channels (15–16, 19–20, 24–25)
	// catch only the OFDM skirts and are excluded from the comparison.
	degraded := []int{17, 18, 21, 22, 23}
	clean := []int{11, 12, 13, 14, 26}

	meanLQI := func(ch int) float64 {
		s, ok := cfg.Link.Summary(ch)
		if !ok {
			t.Fatalf("channel %d missing from the aggregator", ch)
		}
		if s.Frames != uint64(cfg.FramesPerChannel) {
			t.Fatalf("channel %d saw %d frames, want %d", ch, s.Frames, cfg.FramesPerChannel)
		}
		return s.MeanLQI
	}

	var worstClean float64 = 256
	for _, ch := range clean {
		if m := meanLQI(ch); m < worstClean {
			worstClean = m
		}
	}
	for _, ch := range degraded {
		if m := meanLQI(ch); m >= worstClean {
			t.Errorf("WiFi-degraded channel %d mean LQI %.1f not below the worst clean channel (%.1f)",
				ch, m, worstClean)
		}
	}
}
