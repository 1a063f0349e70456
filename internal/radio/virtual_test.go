package radio

import (
	"math"
	"testing"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

func TestDeliverVirtualPassbandGate(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = obs.NewRegistry()
	link := Link{SNRdB: 30}

	out := m.DeliverVirtual(20, 2420, 2470, link, 1)
	if out.InBand || out.Delivered {
		t.Errorf("out-of-band delivery reported %+v", out)
	}
	out = m.DeliverVirtual(20, 2420, 2420, link, 1)
	if !out.InBand {
		t.Error("co-channel transmission not in band")
	}
	if !out.Delivered {
		t.Error("30 dB co-channel frame erased (success prob should be ~1)")
	}
	if out.SuccessProb < 0.999 {
		t.Errorf("success prob %g at 30 dB, want ~1", out.SuccessProb)
	}
}

func TestDeliverVirtualDeterministicInSeed(t *testing.T) {
	m1, _ := NewMedium(16e6, 1)
	m2, _ := NewMedium(16e6, 99) // different medium seed must not matter
	m1.Obs = obs.NewRegistry()
	m2.Obs = obs.NewRegistry()
	link := Link{SNRdB: 1.5} // deep in the erasure regime
	for seed := uint64(0); seed < 512; seed++ {
		a := m1.DeliverVirtual(60, 2420, 2420, link, seed)
		b := m2.DeliverVirtual(60, 2420, 2420, link, seed)
		if a != b {
			t.Fatalf("seed %d: outcomes diverge: %+v vs %+v", seed, a, b)
		}
	}
}

func TestDeliverVirtualErasureRateTracksProbability(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	link := Link{SNRdB: 2}
	const trials = 20000
	delivered := 0
	var prob float64
	for seed := uint64(0); seed < trials; seed++ {
		out := m.DeliverVirtual(40, 2420, 2420, link, seed)
		prob = out.SuccessProb
		if out.Delivered {
			delivered++
		}
	}
	if prob <= 0 || prob >= 1 {
		t.Fatalf("success prob %g not in the mixed regime; pick a different SNR", prob)
	}
	got := float64(delivered) / trials
	// Binomial std dev ~ sqrt(p(1-p)/n); allow 5 sigma.
	tol := 5 * math.Sqrt(prob*(1-prob)/trials)
	if math.Abs(got-prob) > tol {
		t.Errorf("delivered rate %.4f vs model prob %.4f (tol %.4f)", got, prob, tol)
	}
}

func TestDeliverVirtualAdjacentChannelPenalty(t *testing.T) {
	m, _ := NewMedium(16e6, 1)
	m.Obs = obs.NewRegistry()
	link := Link{SNRdB: 12}
	co := m.DeliverVirtual(40, 2420, 2420, link, 7)
	adj := m.DeliverVirtual(40, 2420, 2421, link, 7)
	if !adj.InBand {
		t.Fatal("adjacent channel should still be in band")
	}
	if adj.SuccessProb >= co.SuccessProb {
		t.Errorf("adjacent-channel success prob %g not below co-channel %g", adj.SuccessProb, co.SuccessProb)
	}
}

// TestSymbolCorrectProbTable pins the despreader-consistency invariants
// of the frame tier's per-symbol decode table: up to half the minimum
// codeword distance always decodes, and more chip errors never help.
func TestSymbolCorrectProbTable(t *testing.T) {
	p := &symbolCorrectProb
	for k := 0; k <= 5; k++ {
		if p[k] != 1 {
			t.Errorf("P[decode | %d chip errors] = %g, want 1 (min codeword distance 12)", k, p[k])
		}
	}
	for k := 7; k <= 16; k++ {
		if p[k] > p[k-1]+0.02 { // Monte-Carlo jitter margin
			t.Errorf("P[decode | %d errors] = %g above P[decode | %d] = %g", k, p[k], k-1, p[k-1])
		}
	}
	if p[16] > 0.5 {
		t.Errorf("P[decode | 16 errors] = %g, want near-random despreading", p[16])
	}
}

// TestSymbolCorrectProbMatchesMonteCarlo reruns the fixed-seed
// Monte-Carlo behind the symbolCorrectProb literal: for each k, 4,096
// codewords with k distinct chips flipped through the real despreader.
// Every hit count must reproduce exactly, so the shipped table cannot
// drift from ieee802154.ClosestSymbol's decision logic.
func TestSymbolCorrectProbMatchesMonteCarlo(t *testing.T) {
	for k := 0; k <= 16; k++ {
		rng := seedStream{state: 0xca11b8 + uint64(k)}
		hits := 0
		for trial := 0; trial < symbolCorrectTrials; trial++ {
			sym := trial % 16
			chips, err := ieee802154.PNSequence(sym)
			if err != nil {
				t.Fatal(err)
			}
			var idx [32]int
			for i := range idx {
				idx[i] = i
			}
			for i := 0; i < k; i++ {
				j := i + rng.intn(len(idx)-i)
				idx[i], idx[j] = idx[j], idx[i]
				chips[idx[i]] ^= 1
			}
			got, _, err := ieee802154.ClosestSymbol(chips)
			if err == nil && got == sym {
				hits++
			}
		}
		if want := symbolCorrectProb[k] * symbolCorrectTrials; float64(hits) != want {
			t.Errorf("k=%d: Monte-Carlo decodes %d/%d, literal says %g", k, hits, int(symbolCorrectTrials), want)
		}
	}
}
