// Package modsim implements the metric the paper's conclusion calls for:
// "Defining a metric to measure such similarities could be useful to
// anticipate which protocols could be diverted to other protocols."
//
// The metric asks: how well can modulation A reproduce the waveform of
// modulation B, as seen by B's own receiver? Both are reduced to their
// per-symbol phase increments on B's decision grid (a noncoherent FSK
// receiver integrates instantaneous frequency over one symbol period and
// thresholds the result). The emulator picks, per one of its symbol
// periods, the input symbol whose frequency sign best tracks the target,
// modulates it, and the score is
//
//	1 − RMSE(Δφ_A, Δφ_B) / (π/2)
//
// over the best time alignment, clipped to [0, 1]. The error is measured
// against the ±π/2 per-symbol decision quantum of the MSK family, so the
// score reads as remaining demodulation margin: BLE LE 2M against
// 802.15.4 O-QPSK stays near 1 (pivotable, the WazaBee result); halving
// the deviation halves the margin (≈ 0.5); rate mismatch (LE 1M) or
// deviation overshoot collapse it.
package modsim

import (
	"fmt"
	"math"
	"math/rand"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/randsrc"
)

// Emulator is the attacker-controlled modulation (the radio being
// diverted).
type Emulator struct {
	// Name identifies the modulation in reports.
	Name string
	// SymbolPeriod is the symbol duration in samples.
	SymbolPeriod int
	// Modulate produces the waveform for a binary input sequence.
	Modulate func(bits bitstream.Bits) (dsp.IQ, error)
}

// Target is the victim modulation to emulate.
type Target struct {
	// Name identifies the modulation in reports.
	Name string
	// SymbolPeriod is the decision-grid period of the target's
	// receiver, in samples.
	SymbolPeriod int
	// Waveform produces a representative random burst.
	Waveform func(rnd *rand.Rand) (dsp.IQ, error)
}

// Similarity measures how closely the emulator can reproduce the
// target's waveform. rnd drives the random representative burst, making
// scores reproducible.
func Similarity(e Emulator, tgt Target, rnd *rand.Rand) (float64, error) {
	if e.SymbolPeriod < 1 || tgt.SymbolPeriod < 1 {
		return 0, fmt.Errorf("modsim: symbol periods must be positive (%d, %d)", e.SymbolPeriod, tgt.SymbolPeriod)
	}
	if e.Modulate == nil || tgt.Waveform == nil {
		return 0, fmt.Errorf("modsim: nil modulator or waveform source")
	}
	if rnd == nil {
		return 0, fmt.Errorf("modsim: nil random source")
	}

	target, err := tgt.Waveform(rnd)
	if err != nil {
		return 0, err
	}
	fB := dsp.Discriminate(target)
	if len(fB) < e.SymbolPeriod {
		return 0, fmt.Errorf("modsim: target burst shorter than one emulator symbol")
	}

	// Greedy per-symbol tracking: transmit the symbol whose frequency
	// sign matches the target window's mean.
	nSym := len(fB) / e.SymbolPeriod
	bits := make(bitstream.Bits, nSym)
	for k := 0; k < nSym; k++ {
		var sum float64
		for i := k * e.SymbolPeriod; i < (k+1)*e.SymbolPeriod; i++ {
			sum += fB[i]
		}
		if sum > 0 {
			bits[k] = 1
		}
	}
	emulated, err := e.Modulate(bits)
	if err != nil {
		return 0, err
	}
	fA := dsp.Discriminate(emulated)

	// Evaluate both waveforms on the target receiver's decision grid,
	// at the best alignment within four emulator symbol periods (pulse
	// shaping introduces group delay).
	sumsB := dsp.IntegrateSymbols(fB, 0, tgt.SymbolPeriod)
	best := 0.0
	for lag := 0; lag <= 4*e.SymbolPeriod; lag++ {
		sumsA := dsp.IntegrateSymbols(fA, lag, tgt.SymbolPeriod)
		if s := trackingScore(sumsA, sumsB); s > best {
			best = s
		}
	}
	return best, nil
}

// trackingScore is 1 − RMSE/(π/2) of per-symbol phase increments over
// the common span, floored at 0.
func trackingScore(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	s := 1 - math.Sqrt(sum/float64(n))/(math.Pi/2)
	if s < 0 {
		return 0
	}
	return s
}

// GFSKEmulator builds an emulator for a GFSK radio with the given
// modulation index and Gaussian BT product at samplesPerSymbol.
func GFSKEmulator(name string, mode ble.Mode, samplesPerSymbol int, modIndex, bt float64) (Emulator, error) {
	phy, err := ble.NewPHYWithShaping(mode, samplesPerSymbol, modIndex, bt)
	if err != nil {
		return Emulator{}, err
	}
	return Emulator{
		Name:         name,
		SymbolPeriod: samplesPerSymbol,
		Modulate:     phy.ModulateBits,
	}, nil
}

// OQPSKTarget builds the 802.15.4 O-QPSK half-sine target: random
// spread frames at samplesPerChip.
func OQPSKTarget(samplesPerChip int) (Target, error) {
	phy, err := ieee802154.NewPHY(samplesPerChip)
	if err != nil {
		return Target{}, err
	}
	return Target{
		Name:         "802.15.4 O-QPSK half-sine",
		SymbolPeriod: samplesPerChip,
		Waveform: func(rnd *rand.Rand) (dsp.IQ, error) {
			payload := make([]byte, 16)
			rnd.Read(payload)
			return phy.ModulateChips(ieee802154.Spread(payload))
		},
	}, nil
}

// PairScore is one row of a pivotability report.
type PairScore struct {
	Emulator string
	Target   string
	Score    float64
}

// CatalogueEntry describes one GFSK-family radio of the pivotability
// catalogue in terms independent of the oversampling factor: the symbol
// period is PeriodFactor × samplesPerSymbol.
type CatalogueEntry struct {
	Name         string
	Mode         ble.Mode
	PeriodFactor int
	ModIndex     float64
	BT           float64
}

// Catalogue returns the GFSK-family radios the pivotability survey
// scores against the 802.15.4 target: the MSK ideal, the BLE LE 2M
// variants across the specification's 0.45..0.55 modulation-index band,
// the deviation pathologies, and the LE 1M rate mismatch.
func Catalogue() []CatalogueEntry {
	return []CatalogueEntry{
		{Name: "MSK 2M (ideal)", Mode: ble.LE2M, PeriodFactor: 1, ModIndex: 0.5, BT: 0},
		{Name: "BLE LE 2M GFSK (m=0.5, BT=0.5)", Mode: ble.LE2M, PeriodFactor: 1, ModIndex: 0.5, BT: 0.5},
		{Name: "BLE LE 2M GFSK (m=0.45)", Mode: ble.LE2M, PeriodFactor: 1, ModIndex: 0.45, BT: 0.5},
		{Name: "BLE LE 2M GFSK (m=0.55)", Mode: ble.LE2M, PeriodFactor: 1, ModIndex: 0.55, BT: 0.5},
		{Name: "GFSK m=0.25 (half deviation)", Mode: ble.LE2M, PeriodFactor: 1, ModIndex: 0.25, BT: 0.5},
		{Name: "GFSK m=1.0 (double deviation)", Mode: ble.LE2M, PeriodFactor: 1, ModIndex: 1.0, BT: 0.5},
		{Name: "BLE LE 1M GFSK (rate mismatch)", Mode: ble.LE1M, PeriodFactor: 2, ModIndex: 0.5, BT: 0.5},
	}
}

// ScoreEntry scores one catalogue entry against a target at the given
// oversampling: one random representative burst drawn from seed. The
// same (entry, samplesPerSymbol, seed) always yields the same score, so
// Monte-Carlo surveys can shard trials freely.
func ScoreEntry(e CatalogueEntry, tgt Target, samplesPerSymbol int, seed int64) (PairScore, error) {
	em, err := GFSKEmulator(e.Name, e.Mode, e.PeriodFactor*samplesPerSymbol, e.ModIndex, e.BT)
	if err != nil {
		return PairScore{}, err
	}
	score, err := Similarity(em, tgt, rand.New(randsrc.New(seed)))
	if err != nil {
		return PairScore{}, err
	}
	return PairScore{Emulator: e.Name, Target: tgt.Name, Score: score}, nil
}

// SurveyAgainstOQPSK scores the catalogue against the 802.15.4 target
// on a single representative burst per entry, reproducing the paper's
// qualitative statements: LE 2M with index ≈ 0.5 is pivotable, LE 1M and
// off-index radios are not (or much less so). For a many-burst survey
// with confidence intervals, see experiment.RunPivotScan.
func SurveyAgainstOQPSK(samplesPerSymbol int, seed int64) ([]PairScore, error) {
	tgt, err := OQPSKTarget(samplesPerSymbol)
	if err != nil {
		return nil, err
	}
	out := make([]PairScore, 0, len(Catalogue()))
	for _, e := range Catalogue() {
		ps, err := ScoreEntry(e, tgt, samplesPerSymbol, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}
