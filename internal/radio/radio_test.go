package radio

import (
	"math"
	"math/rand"
	"testing"

	"wazabee/internal/dsp"
	"wazabee/internal/obs"
)

func carrier(n int) dsp.IQ {
	s := make(dsp.IQ, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func TestNewMediumValidation(t *testing.T) {
	if _, err := NewMedium(0, 1); err == nil {
		t.Error("expected error for zero sample rate")
	}
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rand() == nil {
		t.Error("Rand() returned nil")
	}
}

// TestMediumRandMatchesMathRand pins the medium's stream, which every
// IQ noise floor and CFO draw comes from, to math/rand's seeded source.
func TestMediumRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		m, err := NewMedium(16e6, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m.Rand(), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			var g, w float64
			if i%3 == 0 {
				g, w = got.Float64(), want.Float64()
			} else {
				g, w = got.NormFloat64(), want.NormFloat64()
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: draw %d = %v, math/rand gives %v", seed, i, g, w)
			}
		}
	}
}

// TestMediumBuildsStreamOnFirstUse checks that symbol- and frame-tier
// deliveries, WiFi interferer included, never build the medium's
// stream, and that the stream Rand then builds starts where math/rand's
// seeded stream does.
func TestMediumBuildsStreamOnFirstUse(t *testing.T) {
	m, err := NewMedium(16e6, 23)
	if err != nil {
		t.Fatal(err)
	}
	itf, err := NewWiFiInterferer(6, 0.5, 1.0, 64)
	if err != nil {
		t.Fatal(err)
	}
	m.AddWiFi(itf)
	psdu := testPSDU(t, 30)
	for _, f := range []Fidelity{FidelitySymbol, FidelityFrame} {
		ch, err := m.Channel(f, ChannelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 32; seed++ {
			spec := FrameSpec{PSDU: psdu, TxFreqMHz: 2435, RxFreqMHz: 2435, Link: Link{SNRdB: 3}, Seed: seed}
			if _, err := ch.Deliver(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.rnd != nil {
		t.Fatal("symbol- and frame-tier deliveries built the medium's stream")
	}
	got, want := m.Rand(), rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d = %d, math/rand gives %d", i, g, w)
		}
	}
}

func TestDeliverCoChannel(t *testing.T) {
	m, err := NewMedium(16e6, 7)
	if err != nil {
		t.Fatal(err)
	}
	sig := carrier(4096)
	out, err := m.Deliver(sig, 2420, 2420, Link{SNRdB: 30, LeadSamples: 100, LagSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4096+200 {
		t.Fatalf("delivered length = %d, want %d", len(out), 4296)
	}
	// The mid-section must carry the signal (power near 1), the tail
	// only the noise floor.
	mid := out[300:4000]
	if p := mid.Power(); p < 0.5 {
		t.Errorf("mid-burst power = %g, want ~1", p)
	}
	tail := out[len(out)-50:]
	if p := tail.Power(); p > 0.1 {
		t.Errorf("tail power = %g, want noise floor only", p)
	}
}

func TestDeliverFarChannelHearsNothing(t *testing.T) {
	m, err := NewMedium(16e6, 8)
	if err != nil {
		t.Fatal(err)
	}
	sig := carrier(2048)
	out, err := m.Deliver(sig, 2420, 2450, Link{SNRdB: 30})
	if err != nil {
		t.Fatal(err)
	}
	if p := out.Power(); p > 0.1 {
		t.Errorf("out-of-channel delivery power = %g, want noise floor", p)
	}
}

func TestDeliverAdjacentChannelAttenuated(t *testing.T) {
	m, err := NewMedium(16e6, 9)
	if err != nil {
		t.Fatal(err)
	}
	sig := carrier(2048)
	out, err := m.Deliver(sig, 2420, 2421, Link{SNRdB: 40})
	if err != nil {
		t.Fatal(err)
	}
	p := out.Power()
	if p > 0.2 || p < 0.001 {
		t.Errorf("adjacent-channel power = %g, want strongly attenuated but nonzero", p)
	}
}

func TestDeliverAppliesCFO(t *testing.T) {
	m, err := NewMedium(16e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	sig := carrier(8192)
	out, err := m.Deliver(sig, 2420, 2420, Link{SNRdB: 60, CFOHz: 50e3})
	if err != nil {
		t.Fatal(err)
	}
	incs := dsp.Discriminate(out)
	got := dsp.MeanFrequency(incs) * 16e6 / (2 * math.Pi)
	if math.Abs(got-50e3) > 2e3 {
		t.Errorf("measured CFO = %g Hz, want 50 kHz", got)
	}
}

func TestDeliverErrors(t *testing.T) {
	m, _ := NewMedium(16e6, 11)
	if _, err := m.Deliver(nil, 2420, 2420, Link{}); err == nil {
		t.Error("expected error for empty transmission")
	}
	if _, err := m.Deliver(carrier(8), 2420, 2420, Link{LeadSamples: -1}); err == nil {
		t.Error("expected error for negative padding")
	}
}

// TestDeliverRejectsNonFiniteLink: a NaN or -Inf SNR would make the
// noise power NaN or +Inf and turn the whole capture into NaN, which
// receivers report as a quiet "no sync"; a non-finite CFO does the same
// through the mixer. +Inf SNR is a noise-free link and stays legal.
func TestDeliverRejectsNonFiniteLink(t *testing.T) {
	for _, link := range []Link{
		{SNRdB: math.NaN()},
		{SNRdB: math.Inf(-1)},
		{SNRdB: 10, CFOHz: math.NaN()},
		{SNRdB: 10, CFOHz: math.Inf(1)},
		{SNRdB: 10, CFOHz: math.Inf(-1)},
	} {
		m, _ := NewMedium(16e6, 11)
		if _, err := m.Deliver(carrier(8), 2420, 2420, link); err == nil {
			t.Errorf("SNR %g dB, CFO %g Hz: expected an error", link.SNRdB, link.CFOHz)
		}
	}

	m, _ := NewMedium(16e6, 11)
	sig := carrier(64)
	out, err := m.Deliver(sig, 2420, 2420, Link{SNRdB: math.Inf(1), LagSamples: 8})
	if err != nil {
		t.Fatalf("+Inf SNR: %v", err)
	}
	for i, v := range out {
		want := complex(0, 0)
		if i < len(sig) {
			want = sig[i]
		}
		if v != want {
			t.Fatalf("+Inf SNR: sample %d = %v, want %v (noise-free)", i, v, want)
		}
	}
}

func TestDeliverDeterministic(t *testing.T) {
	run := func() dsp.IQ {
		m, err := NewMedium(16e6, 42)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.Deliver(carrier(512), 2420, 2420, Link{SNRdB: 10, LeadSamples: 64})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different deliveries")
		}
	}
}

func TestWiFiChannelFrequency(t *testing.T) {
	tests := []struct {
		channel int
		want    float64
	}{
		{1, 2412}, {6, 2437}, {11, 2462},
	}
	for _, tt := range tests {
		got, err := WiFiChannelFrequencyMHz(tt.channel)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("WiFi channel %d = %g MHz, want %g", tt.channel, got, tt.want)
		}
	}
	if _, err := WiFiChannelFrequencyMHz(0); err == nil {
		t.Error("expected error for channel 0")
	}
	if _, err := WiFiChannelFrequencyMHz(14); err == nil {
		t.Error("expected error for channel 14")
	}
}

func TestNewWiFiInterfererValidation(t *testing.T) {
	if _, err := NewWiFiInterferer(6, -0.1, 1, 100); err == nil {
		t.Error("expected error for negative duty cycle")
	}
	if _, err := NewWiFiInterferer(6, 0.5, -1, 100); err == nil {
		t.Error("expected error for negative power")
	}
	if _, err := NewWiFiInterferer(6, 0.5, 1, 0); err == nil {
		t.Error("expected error for zero burst length")
	}
	if _, err := NewWiFiInterferer(77, 0.5, 1, 100); err == nil {
		t.Error("expected error for invalid channel")
	}
}

func TestWiFiOverlapShape(t *testing.T) {
	w, err := NewWiFiInterferer(6, 0.4, 1, 400) // 2437 MHz
	if err != nil {
		t.Fatal(err)
	}
	// Zigbee channels near the WiFi centre overlap strongly; distant
	// ones not at all. 2435/2440 = Zigbee 17/18; 2425 = Zigbee 15.
	if w.Overlap(2437) != 1 {
		t.Error("zero-offset overlap should be 1")
	}
	strong := w.Overlap(2435)
	weak := w.Overlap(2430)
	none := w.Overlap(2425)
	if !(strong > weak && weak > none) {
		t.Errorf("overlap not monotonic: %g, %g, %g", strong, weak, none)
	}
	if none != 0 {
		t.Errorf("overlap at 12 MHz offset = %g, want 0", none)
	}
}

func TestWiFiInterferenceDegradesVictimChannel(t *testing.T) {
	m, err := NewMedium(16e6, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWiFiInterferer(6, 0.5, 4.0, 500)
	if err != nil {
		t.Fatal(err)
	}
	m.AddWiFi(w)

	deliverPower := func(rxMHz float64) float64 {
		out, err := m.Deliver(carrier(20000), rxMHz, rxMHz, Link{SNRdB: 60})
		if err != nil {
			t.Fatal(err)
		}
		return out.Power()
	}
	onWiFi := deliverPower(2440)  // Zigbee 18, inside WiFi 6
	offWiFi := deliverPower(2480) // Zigbee 26, far away
	if onWiFi <= offWiFi*1.2 {
		t.Errorf("power on interfered channel %g not above clean channel %g", onWiFi, offWiFi)
	}
}

// TestDeliverObservesMediumLatency pins the "medium" latency stage:
// every Deliver call self-times the channel simulation into
// wazabee_latency_seconds{stage="medium"} on the medium's registry.
func TestDeliverObservesMediumLatency(t *testing.T) {
	m, err := NewMedium(16e6, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = obs.NewRegistry()
	if _, err := m.Deliver(carrier(256), 2425, 2425, Link{SNRdB: 20}); err != nil {
		t.Fatal(err)
	}
	h := obs.LatencyHistogram(m.Obs, "medium")
	if got := h.Count(); got != 1 {
		t.Fatalf("medium latency count = %d after one delivery, want 1", got)
	}
	if h.Sum() <= 0 {
		t.Errorf("medium latency sum = %g, want > 0", h.Sum())
	}
}
