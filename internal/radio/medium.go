// Package radio simulates the shared 2.4 GHz medium between the radios of
// the experiments: per-link signal-to-noise ratio, carrier frequency
// offset between crystals, random burst timing, channel selectivity and
// co-channel WiFi interference. It stands in for the over-the-air path of
// the paper's test bench (transmitter and receiver 3 m apart in an office
// with live WiFi on channels 6 and 11).
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wazabee/internal/dsp"
	"wazabee/internal/obs"
)

// Link describes the propagation between one transmitter and one receiver.
type Link struct {
	// SNRdB is the signal-to-noise ratio at the receiver input.
	SNRdB float64
	// CFOHz is the carrier frequency offset between the two radios'
	// crystals.
	CFOHz float64
	// LeadSamples and LagSamples bound the random noise-only padding
	// around the burst (receiver opens its window before the frame).
	LeadSamples, LagSamples int
	// InterferenceRejectionDB attenuates co-channel interference at the
	// receiver, modelling its blocking/selectivity performance — the
	// analog quality that separates receivers under a busy WiFi band.
	InterferenceRejectionDB float64
}

// Validate rejects the link values no fidelity tier can simulate: a NaN
// or -Inf SNR and a non-finite CFO. An SNR of +Inf is a noise-free link.
func (l Link) Validate() error {
	if math.IsNaN(l.SNRdB) || math.IsInf(l.SNRdB, -1) {
		return fmt.Errorf("radio: link SNR %g dB, want a number above -Inf", l.SNRdB)
	}
	if math.IsNaN(l.CFOHz) || math.IsInf(l.CFOHz, 0) {
		return fmt.Errorf("radio: link CFO %g Hz, want a finite offset", l.CFOHz)
	}
	return nil
}

// Medium is a deterministic radio channel simulator.
type Medium struct {
	// SampleRateHz is the complex-baseband sample rate shared by all
	// attached modems.
	SampleRateHz float64

	// Obs receives the medium's metrics (bursts delivered, SNR/CFO
	// gauges, interference hits); nil falls back to the process default
	// registry.
	Obs *obs.Registry

	// Trace, when non-nil, records a "medium" span per delivery.
	Trace *obs.Trace

	rnd         *rand.Rand
	interferers []WiFiInterferer

	// tierCtrs caches the counters the symbol and frame tiers bump per
	// frame (see Medium.count).
	tierCtrs obs.CounterCache
}

// NewMedium builds a medium with the given sample rate and seed. All
// randomness (noise, burst timing, interference) flows from the seed, so
// experiments reproduce exactly.
func NewMedium(sampleRateHz float64, seed int64) (*Medium, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("radio: sample rate %g <= 0", sampleRateHz)
	}
	return &Medium{
		SampleRateHz: sampleRateHz,
		rnd:          rand.New(rand.NewSource(seed)),
	}, nil
}

// AddWiFi attaches a WiFi interferer to the medium.
func (m *Medium) AddWiFi(w WiFiInterferer) {
	m.interferers = append(m.interferers, w)
}

// Rand exposes the medium's random source so callers sequencing several
// deliveries share one deterministic stream.
//
// The returned *rand.Rand is NOT synchronised: it must only be used
// from the single goroutine that drives this medium's waveform
// deliveries (Deliver and Replay draw from it). Seed-parameterised
// deliveries — the symbol and frame fidelity tiers of Channel — never
// touch this stream, which is what makes them safe to call
// concurrently with per-call seeds.
func (m *Medium) Rand() *rand.Rand {
	return m.rnd
}

// Deliver propagates a burst transmitted at txFreqMHz to a receiver tuned
// to rxFreqMHz and returns the waveform at the receiver's ADC. A
// transmission more than one channel-width away returns pure noise (the
// receiver hears nothing); a co-channel transmission is delayed by a
// random intra-window offset, frequency-shifted by the residual CFO,
// degraded by AWGN at the link SNR and overlaid with any interference
// bursts active on that frequency.
//
// The link SNR may be +Inf (a noise-free link); a NaN or -Inf SNR, or a
// non-finite CFO, is an error.
func (m *Medium) Deliver(sig dsp.IQ, txFreqMHz, rxFreqMHz float64, link Link) (dsp.IQ, error) {
	return m.deliverInto(nil, sig, txFreqMHz, rxFreqMHz, link)
}

// deliverInto is Deliver writing the capture into dst's capacity when it
// is large enough (the IQ tier passes a pooled slab) and into a fresh
// buffer otherwise.
func (m *Medium) deliverInto(dst, sig dsp.IQ, txFreqMHz, rxFreqMHz float64, link Link) (dsp.IQ, error) {
	if len(sig) == 0 {
		return nil, fmt.Errorf("radio: empty transmission")
	}
	lead := link.LeadSamples
	lag := link.LagSamples
	if lead < 0 || lag < 0 {
		return nil, fmt.Errorf("radio: negative padding")
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}

	reg := obs.Or(m.Obs)
	end := obs.Stage(reg, m.Trace, "medium")
	defer end()
	// The medium is the TX→RX boundary: observing its wall time as the
	// "medium" latency stage lets the daemon's emit→demod numbers be
	// decomposed into channel-simulation cost vs DSP cost.
	start := time.Now()
	defer func() {
		obs.LatencyHistogram(reg, "medium").Observe(obs.DurationSeconds(time.Since(start)))
	}()

	sep := txFreqMHz - rxFreqMHz
	if sep < 0 {
		sep = -sep
	}

	n := lead + len(sig) + lag
	if cap(dst) < n {
		dst = make(dsp.IQ, 0, n)
	}
	noisePower := sig.Power() / math.Pow(10, link.SNRdB/10)
	out, err := dsp.NoiseFloorInto(dst[:0], n, noisePower, m.rnd)
	if err != nil {
		return nil, err
	}

	if sep < 2 {
		// Co- or adjacent-channel: the burst reaches the receiver,
		// shifted by the residual CFO. Adjacent-channel energy is
		// attenuated by the receive filter (strong adjacent-channel
		// rejection); in-channel passes at full power. The offset is
		// drawn after the noise floor: the draw order is part of the
		// medium's bit-exact contract (DESIGN.md §9).
		offset := lead
		if lead > 0 {
			offset = m.rnd.Intn(lead + 1)
		}
		gain := 1.0
		if sep >= 1 {
			gain = 0.1
		}
		out.MixAdd(sig, offset, link.CFOHz/m.SampleRateHz, gain)
		reg.Counter("wazabee_medium_bursts_total", "path", "in_band").Inc()
	} else {
		reg.Counter("wazabee_medium_bursts_total", "path", "out_of_band").Inc()
	}
	reg.Gauge("wazabee_medium_snr_db").Set(link.SNRdB)
	reg.Gauge("wazabee_medium_cfo_hz").Set(link.CFOHz)

	for _, w := range m.interferers {
		hit, err := w.apply(out, rxFreqMHz, link.InterferenceRejectionDB, m)
		if err != nil {
			return nil, err
		}
		if hit {
			reg.Counter("wazabee_medium_interference_hits_total").Inc()
		}
	}
	return out, nil
}

// Replay is the injection point for recorded captures: it propagates a
// burst that originally aired at txFreqMHz to a receiver tuned to
// rxFreqMHz, exactly like Deliver, but accounts the burst separately so
// telemetry distinguishes replayed traffic from live traffic.
func (m *Medium) Replay(sig dsp.IQ, txFreqMHz, rxFreqMHz float64, link Link) (dsp.IQ, error) {
	out, err := m.Deliver(sig, txFreqMHz, rxFreqMHz, link)
	if err != nil {
		return nil, err
	}
	obs.Or(m.Obs).Counter("wazabee_medium_replayed_total").Inc()
	return out, nil
}
