package radio

import (
	"errors"
	"math"
	"strings"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

func TestParseFidelityRoundTrip(t *testing.T) {
	for _, f := range []Fidelity{FidelityIQ, FidelitySymbol, FidelityFrame} {
		got, err := ParseFidelity(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFidelity(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFidelity("waveform"); err == nil {
		t.Error("unknown fidelity accepted")
	}
}

func TestChannelOptionValidation(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Channel(FidelityIQ, ChannelOptions{}); err == nil {
		t.Error("IQ channel without endpoints accepted")
	}
	if _, err := m.Channel(Fidelity(42), ChannelOptions{}); err == nil {
		t.Error("unknown fidelity accepted")
	}
	if _, err := m.Channel(FidelitySymbol, ChannelOptions{Profile: "no/such-profile"}); err == nil {
		t.Error("missing calibration profile accepted")
	}
	for _, f := range []Fidelity{FidelitySymbol, FidelityFrame} {
		ch, err := m.Channel(f, ChannelOptions{})
		if err != nil {
			t.Fatalf("%v channel on default profile: %v", f, err)
		}
		if ch.Fidelity() != f {
			t.Errorf("channel fidelity %v, want %v", ch.Fidelity(), f)
		}
	}
}

// testPSDU builds a minimal FCS-valid frame body for channel tests.
func testPSDU(t *testing.T, n int) []byte {
	t.Helper()
	if n < 2 {
		t.Fatalf("psdu length %d too short for an FCS", n)
	}
	psdu := make([]byte, n)
	for i := range psdu[:n-2] {
		psdu[i] = byte(i * 7)
	}
	fcs := bitstream.FCS16(psdu[:n-2])
	psdu[n-2], psdu[n-1] = byte(fcs), byte(fcs>>8)
	return psdu
}

func TestSymbolChannelDeterministicInSeed(t *testing.T) {
	m1, _ := NewMedium(16e6, 1)
	m2, _ := NewMedium(16e6, 99) // medium seed must not matter
	m1.Obs, m2.Obs = obs.NewRegistry(), obs.NewRegistry()
	ch1, err := m1.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := m2.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, 40)
	link := Link{SNRdB: 2} // deep in the error regime
	for seed := uint64(0); seed < 256; seed++ {
		spec := FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed}
		a, err1 := ch1.Deliver(spec)
		b, err2 := ch2.Deliver(spec)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: deliver errors %v, %v", seed, err1, err2)
		}
		if a.Valid != b.Valid || a.ChipErrors != b.ChipErrors ||
			!errors.Is(a.DecodeErr, b.DecodeErr) || string(a.PSDU) != string(b.PSDU) {
			t.Fatalf("seed %d: outcomes diverge: %+v vs %+v", seed, a, b)
		}
	}
}

// TestSymbolChannelOutcomeClasses checks that mid-waterfall delivery
// produces all three Table III outcome classes with sound semantics:
// sync failures carry ErrNoSync and no PSDU, corrupted frames carry a
// same-length PSDU that differs from the transmission, and valid frames
// return it byte-identical.
func TestSymbolChannelOutcomeClasses(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	ch, err := m.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, 40)
	link := Link{SNRdB: 2}
	var valid, corrupted, lost int
	for seed := uint64(0); seed < 4000; seed++ {
		out, err := ch.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !out.InBand:
			t.Fatal("co-channel delivery out of band")
		case out.DecodeErr != nil:
			if !errors.Is(out.DecodeErr, ieee802154.ErrNoSync) {
				t.Fatalf("unexpected decode error %v", out.DecodeErr)
			}
			if out.PSDU != nil {
				t.Fatal("sync failure still produced a PSDU")
			}
			lost++
		case out.Valid:
			if string(out.PSDU) != string(psdu) {
				t.Fatal("valid outcome with mismatched PSDU")
			}
			valid++
		default:
			if len(out.PSDU) != len(psdu) {
				t.Fatalf("corrupted PSDU length %d, want %d", len(out.PSDU), len(psdu))
			}
			if string(out.PSDU) == string(psdu) {
				t.Fatal("corrupted outcome with byte-identical PSDU")
			}
			if out.ChipErrors <= 5 {
				t.Fatalf("corruption with only %d chip errors (min codeword distance is 12)", out.ChipErrors)
			}
			corrupted++
		}
	}
	if valid == 0 || corrupted == 0 || lost == 0 {
		t.Errorf("classes not all populated at 2 dB: valid=%d corrupted=%d lost=%d", valid, corrupted, lost)
	}
}

// TestSymbolAndFrameTiersAgree cross-checks the two calibrated tiers
// against each other: the frame tier's closed-form success probability
// must match the symbol tier's empirical delivery rate, since both are
// derived from the same calibration cells and despreader model.
func TestSymbolAndFrameTiersAgree(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	sym, err := m.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frm, err := m.Channel(FidelityFrame, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psdu := testPSDU(t, 40)
	for _, snr := range []float64{0, 2, 4} {
		link := Link{SNRdB: snr}
		const trials = 6000
		delivered := 0
		for seed := uint64(0); seed < trials; seed++ {
			out, err := sym.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if out.Delivered() {
				delivered++
			}
		}
		fout, err := frm.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		prob := fout.SuccessProb
		got := float64(delivered) / trials
		// 5-sigma binomial noise plus a small margin for the frame
		// tier's Monte-Carlo symbol-decode table.
		tol := 5*math.Sqrt(prob*(1-prob)/trials) + 0.015
		if math.Abs(got-prob) > tol {
			t.Errorf("snr %g: symbol-tier delivery rate %.4f vs frame-tier prob %.4f (tol %.4f)",
				snr, got, prob, tol)
		}
	}
}

func TestSymbolChannelPassbandGate(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	ch, err := m.Channel(FidelitySymbol, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ch.Deliver(FrameSpec{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2470, Link: Link{SNRdB: 30}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.InBand || out.Received() || out.Delivered() {
		t.Errorf("out-of-band delivery reported %+v", out)
	}
	adj, err := ch.Deliver(FrameSpec{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2421, Link: Link{SNRdB: 40}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !adj.InBand {
		t.Error("adjacent channel should still be in band")
	}
}

func TestWiFiWeight(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	if w := m.wifiWeight(2440, 0); w != 0 {
		t.Errorf("clean medium weight %g, want 0", w)
	}
	itf, err := NewWiFiInterferer(6, 0.005, 6.0, 800) // 2437 MHz, reference duty/power
	if err != nil {
		t.Fatal(err)
	}
	m.AddWiFi(itf)
	want := itf.Overlap(2440)
	if got := m.wifiWeight(2440, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("reference-shaped interferer weight %g, want overlap %g", got, want)
	}
	// 10 dB of receiver rejection scales the weight by 0.1.
	if got := m.wifiWeight(2440, 10); math.Abs(got-want/10) > 1e-12 {
		t.Errorf("rejected weight %g, want %g", got, want/10)
	}
	// A second network doubles up additively.
	m.AddWiFi(itf)
	if got := m.wifiWeight(2440, 0); math.Abs(got-2*want) > 1e-12 {
		t.Errorf("two networks weight %g, want %g", got, 2*want)
	}
}

func TestCalProfileLookupInterpolates(t *testing.T) {
	mk := func(sf float64) CalCell {
		c := CalCell{SyncFail: sf}
		c.Dist[0] = 1 - sf/2
		c.Dist[8] = sf / 2
		return c
	}
	p := &CalProfile{
		Name:  "test",
		SNRdB: []float64{0, 10},
		CFOHz: []float64{0},
		WiFi:  []float64{0, 1},
		Cells: []CalCell{mk(0.8), mk(1.0), mk(0.2), mk(0.6)},
	}
	if got := p.Lookup(0, 0, 0).SyncFail; got != 0.8 {
		t.Errorf("corner lookup %g, want 0.8", got)
	}
	if got := p.Lookup(-50, 0, 0).SyncFail; got != 0.8 {
		t.Errorf("clamped-low lookup %g, want 0.8", got)
	}
	if got := p.Lookup(50, 0, 2).SyncFail; got != 0.6 {
		t.Errorf("clamped-high lookup %g, want 0.6", got)
	}
	if got := p.Lookup(5, 0, 0).SyncFail; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SNR midpoint %g, want 0.5", got)
	}
	mid := p.Lookup(5, 0, 0.5)
	if math.Abs(mid.SyncFail-0.65) > 1e-12 {
		t.Errorf("bilinear midpoint %g, want 0.65", mid.SyncFail)
	}
	sum := 0.0
	for _, d := range mid.Dist {
		sum += d
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("interpolated distribution sums to %g", sum)
	}
	// Negative CFO mirrors onto the positive axis.
	if a, b := p.Lookup(5, -3, 0).SyncFail, p.Lookup(5, 3, 0).SyncFail; a != b {
		t.Errorf("CFO sign symmetry broken: %g vs %g", a, b)
	}
}

func TestDefaultCalTableShipsAllProfiles(t *testing.T) {
	table, err := DefaultCalTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		ProfileOQPSK,
		CalProfileName("nRF52832", "reception"),
		CalProfileName("nRF52832", "transmission"),
		CalProfileName("CC1352-R1", "reception"),
		CalProfileName("CC1352-R1", "transmission"),
	} {
		if _, err := table.Profile(name); err != nil {
			t.Errorf("embedded table: %v", err)
		}
	}
}

// TestCalibratedTiersRejectInvalidLinks pins the Link.Validate rule on
// the symbol and frame tiers: a NaN or -Inf SNR or a non-finite CFO is
// an error (a NaN SNR once indexed past the calibration grid), while a
// +Inf SNR is a noise-free link that delivers.
func TestCalibratedTiersRejectInvalidLinks(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = obs.NewRegistry()
	psdu := testPSDU(t, 20)
	for _, f := range []Fidelity{FidelitySymbol, FidelityFrame} {
		ch, err := m.Channel(f, ChannelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, link := range []Link{
			{SNRdB: math.NaN()},
			{SNRdB: math.Inf(-1)},
			{SNRdB: 20, CFOHz: math.NaN()},
			{SNRdB: 20, CFOHz: math.Inf(1)},
			{SNRdB: 20, CFOHz: math.Inf(-1)},
		} {
			// Out of band too: the link is checked before the passband.
			for _, rx := range []float64{2420, 2470} {
				if _, err := ch.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: rx, Link: link, Seed: 3}); err == nil {
					t.Errorf("%v tier accepted link %+v at rx %g MHz", f, link, rx)
				}
			}
		}
		out, err := ch.Deliver(FrameSpec{PSDU: psdu, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: Link{SNRdB: math.Inf(1)}, Seed: 3})
		if err != nil {
			t.Fatalf("%v tier rejected a noise-free link: %v", f, err)
		}
		if !out.Delivered() {
			t.Errorf("%v tier lost a frame on a noise-free link: %+v", f, out)
		}
	}
}

// TestTierCountersFollowRegistry checks the cached per-frame counters:
// a series appears only once it is first incremented (an erasure-free
// run never registers the erasure counter), and pointing Medium.Obs at
// another registry moves later counts there.
func TestTierCountersFollowRegistry(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, second := obs.NewRegistry(), obs.NewRegistry()
	m.Obs = first
	ch, err := m.Channel(FidelityFrame, ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ch.Deliver(FrameSpec{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: Link{SNRdB: 30}, Seed: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver(5)
	m.Obs = second
	deliver(3)
	inBand := func(reg *obs.Registry) uint64 {
		return reg.Counter("wazabee_medium_bursts_total", "path", "virtual_in_band").Value()
	}
	if got := inBand(first); got != 5 {
		t.Errorf("first registry counted %d in-band frames, want 5", got)
	}
	if got := inBand(second); got != 3 {
		t.Errorf("second registry counted %d in-band frames, want 3", got)
	}
	for _, reg := range []*obs.Registry{first, second} {
		text := reg.PrometheusText()
		for _, absent := range []string{"virtual_erased", "virtual_out_of_band", "symbol_"} {
			if strings.Contains(text, absent) {
				t.Errorf("registry holds a %s series no delivery incremented:\n%s", absent, text)
			}
		}
	}
}

// TestTierCountersWithoutRegistry checks that a medium with no
// registry counts its symbol- and frame-tier deliveries nowhere: unlike
// the IQ path, the calibrated tiers do not fall back to the process
// default registry.
func TestTierCountersWithoutRegistry(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().PrometheusText()
	for _, f := range []Fidelity{FidelitySymbol, FidelityFrame} {
		ch, err := m.Channel(f, ChannelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			// 0 dB erases some frames; 2450 MHz is out of band.
			for _, spec := range []FrameSpec{
				{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: Link{SNRdB: 0}, Seed: uint64(i)},
				{PSDULen: 20, TxFreqMHz: 2420, RxFreqMHz: 2450, Link: Link{SNRdB: 30}, Seed: uint64(i)},
			} {
				if _, err := ch.Deliver(spec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if after := obs.Default().PrometheusText(); after != before {
		t.Errorf("a medium without a registry counted on the process default:\n%s", after)
	}
}

// TestCalibratedTiersRejectImpossibleLengths checks that the symbol and
// frame tiers both refuse a PSDU length no PHR can carry, given as
// PSDULen or as a PSDU, and accept the two extremes of the valid range.
func TestCalibratedTiersRejectImpossibleLengths(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = obs.NewRegistry()
	link := Link{SNRdB: 0}
	for _, f := range []Fidelity{FidelitySymbol, FidelityFrame} {
		ch, err := m.Channel(f, ChannelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			spec FrameSpec
		}{
			{"PSDULen -60", FrameSpec{PSDULen: -60}},
			{"PSDULen 200", FrameSpec{PSDULen: 200}},
			{"PSDULen 128", FrameSpec{PSDULen: ieee802154.MaxPSDULength + 1}},
			{"200-octet PSDU", FrameSpec{PSDU: make([]byte, 200)}},
		} {
			spec := tc.spec
			spec.TxFreqMHz, spec.RxFreqMHz, spec.Link, spec.Seed = 2420, 2420, link, 3
			out, err := ch.Deliver(spec)
			if err == nil || !strings.Contains(err.Error(), "out of [0,127]") {
				t.Errorf("%v tier, %s: err = %v, outcome %+v; want the out-of-range error", f, tc.name, err, out)
			}
		}
		for _, n := range []int{0, ieee802154.MaxPSDULength} {
			if _, err := ch.Deliver(FrameSpec{PSDULen: n, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: 3}); err != nil {
				t.Errorf("%v tier rejected length %d: %v", f, n, err)
			}
		}
	}
}
