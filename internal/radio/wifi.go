package radio

import (
	"fmt"
	"math"

	"wazabee/internal/dsp"
)

// WiFiInterferer models an 802.11 network sharing the 2.4 GHz band. WiFi
// frames are ~22 MHz wide, so from inside a 2 MHz Zigbee/BLE channel they
// appear as wideband noise bursts gated by the network's duty cycle, with
// power falling off toward the band edges. The paper's environment had
// live networks on WiFi channels 6 (2437 MHz) and 11 (2462 MHz), which is
// what degrades Zigbee channels 17–18 and 21–23 in Table III.
type WiFiInterferer struct {
	// CenterMHz is the WiFi channel centre frequency.
	CenterMHz float64
	// BandwidthMHz is the occupied bandwidth (22 for 802.11b/g).
	BandwidthMHz float64
	// DutyCycle is the fraction of time the network transmits.
	DutyCycle float64
	// Power is the interference power, relative to unit received signal
	// power, at zero spectral offset.
	Power float64
	// BurstSamples is the mean burst length in samples (one WiFi frame).
	BurstSamples int
}

// WiFiChannelFrequencyMHz returns the centre frequency of a 2.4 GHz WiFi
// channel (1..13): 2412 + 5(k-1).
func WiFiChannelFrequencyMHz(channel int) (float64, error) {
	if channel < 1 || channel > 13 {
		return 0, fmt.Errorf("radio: WiFi channel %d out of range [1,13]", channel)
	}
	return 2412 + 5*float64(channel-1), nil
}

// NewWiFiInterferer builds an interferer for a 2.4 GHz WiFi channel with
// standard 22 MHz bandwidth.
func NewWiFiInterferer(channel int, dutyCycle, power float64, burstSamples int) (WiFiInterferer, error) {
	center, err := WiFiChannelFrequencyMHz(channel)
	if err != nil {
		return WiFiInterferer{}, err
	}
	if dutyCycle < 0 || dutyCycle > 1 {
		return WiFiInterferer{}, fmt.Errorf("radio: duty cycle %g out of [0,1]", dutyCycle)
	}
	if power < 0 {
		return WiFiInterferer{}, fmt.Errorf("radio: negative interference power %g", power)
	}
	if burstSamples < 1 {
		return WiFiInterferer{}, fmt.Errorf("radio: burst length %d < 1", burstSamples)
	}
	return WiFiInterferer{
		CenterMHz:    center,
		BandwidthMHz: 22,
		DutyCycle:    dutyCycle,
		Power:        power,
		BurstSamples: burstSamples,
	}, nil
}

// Overlap returns the spectral overlap weight (0..1) of the interferer at
// a victim centre frequency: a steep (1−x²)³ roll-off across the half
// bandwidth, matching the OFDM power profile well enough that channels
// within a few MHz of the WiFi centre suffer strongly while channels near
// the skirt are only mildly touched — the pattern of Table III.
func (w WiFiInterferer) Overlap(victimMHz float64) float64 {
	df := victimMHz - w.CenterMHz
	if df < 0 {
		df = -df
	}
	half := w.BandwidthMHz / 2
	if half <= 0 || df >= half {
		return 0
	}
	x := df / half
	y := 1 - x*x
	return y * y * y
}

// apply overlays interference bursts onto a receiver capture,
// attenuated by the receiver's blocking performance. It reports whether
// the interferer actually reached the capture (spectral overlap and
// non-zero duty cycle), so the medium can count interference hits.
func (w WiFiInterferer) apply(sig dsp.IQ, rxFreqMHz, rejectionDB float64, m *Medium) (bool, error) {
	weight := w.Overlap(rxFreqMHz)
	if weight == 0 || w.DutyCycle == 0 || w.Power == 0 {
		return false, nil
	}
	power := w.Power * weight * math.Pow(10, -rejectionDB/10)
	return true, dsp.BurstNoise(sig, w.DutyCycle, w.BurstSamples, power, m.Rand())
}
