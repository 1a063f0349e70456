package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"wazabee/internal/chip"
	"wazabee/internal/obs"
)

// smallTable3Config is a fast Table III configuration for determinism
// tests: few frames, no WiFi (the classification logic is identical).
func smallTable3Config(workers int) Config {
	return Config{
		FramesPerChannel: 4,
		SamplesPerChip:   8,
		Workers:          workers,
		Seed:             9,
		SNRdB:            10,
		Obs:              obs.NewRegistry(),
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTable3DeterministicAcrossWorkers asserts a Table III run is
// byte-identical at any worker count: every frame's randomness derives
// from (seed, channel, frame), never from scheduling.
func TestTable3DeterministicAcrossWorkers(t *testing.T) {
	model := chip.NRF52832()
	ref, err := RunContext(context.Background(), smallTable3Config(1), model, Reception)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := mustJSON(t, ref)
	for _, workers := range []int{4, 8} {
		res, err := RunContext(context.Background(), smallTable3Config(workers), model, Reception)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, res); got != refJSON {
			t.Errorf("workers=%d result differs from workers=1:\n%s\nvs\n%s", workers, got, refJSON)
		}
	}
}

// smallSweepConfig is a fast sweep for determinism tests.
func smallSweepConfig(workers int) SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.SNRs = []float64{0, 5, 7, 10}
	cfg.FramesPerPoint = 10
	cfg.Seed = 3
	cfg.Workers = workers
	cfg.Obs = obs.NewRegistry()
	return cfg
}

// TestSweepDeterministicAcrossWorkers asserts the PER sweep is
// byte-identical at any worker count, including the Wilson bounds.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	model := chip.NRF52832()
	ref, err := RunSweepContext(context.Background(), smallSweepConfig(1), model, Transmission)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := mustJSON(t, ref)
	for _, workers := range []int{4, 8} {
		res, err := RunSweepContext(context.Background(), smallSweepConfig(workers), model, Transmission)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, res); got != refJSON {
			t.Errorf("workers=%d sweep differs from workers=1:\n%s\nvs\n%s", workers, got, refJSON)
		}
	}
}

// TestSweepOrderIndependent is the regression test for the sweep's old
// order-dependent randomness (one medium advanced across all SNR points,
// so reordering the list changed every point's noise). Seeding per
// (SNR, frame) makes a point's PER a property of the point alone.
func TestSweepOrderIndependent(t *testing.T) {
	model := chip.NRF52832()
	cfg := smallSweepConfig(2)
	forward, err := RunSweepContext(context.Background(), cfg, model, Reception)
	if err != nil {
		t.Fatal(err)
	}

	rev := smallSweepConfig(2)
	rev.SNRs = make([]float64, len(cfg.SNRs))
	for i, snr := range cfg.SNRs {
		rev.SNRs[len(cfg.SNRs)-1-i] = snr
	}
	backward, err := RunSweepContext(context.Background(), rev, model, Reception)
	if err != nil {
		t.Fatal(err)
	}

	bySNR := make(map[float64]SweepPoint, len(backward))
	for _, p := range backward {
		bySNR[p.SNRdB] = p
	}
	for _, p := range forward {
		q, ok := bySNR[p.SNRdB]
		if !ok {
			t.Fatalf("SNR %g missing from reversed sweep", p.SNRdB)
		}
		if mustJSON(t, p) != mustJSON(t, q) {
			t.Errorf("SNR %g: point depends on sweep order:\nforward  %+v\nbackward %+v", p.SNRdB, p, q)
		}
	}
}

// TestSweepCarriesWilsonInterval asserts every sweep point reports a
// well-formed 95% interval around its PER.
func TestSweepCarriesWilsonInterval(t *testing.T) {
	points, err := RunSweepContext(context.Background(), smallSweepConfig(2), chip.NRF52832(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Frames != 10 {
			t.Errorf("SNR %g: frames = %d, want 10", p.SNRdB, p.Frames)
		}
		if p.PERLo > p.PER+1e-12 || p.PERHi < p.PER-1e-12 {
			t.Errorf("SNR %g: PER %g outside its interval [%g, %g]", p.SNRdB, p.PER, p.PERLo, p.PERHi)
		}
		if p.PERLo < 0 || p.PERHi > 1 || p.PERHi-p.PERLo >= 1 {
			t.Errorf("SNR %g: malformed interval [%g, %g]", p.SNRdB, p.PERLo, p.PERHi)
		}
		if math.Abs(p.PER-(p.CorruptedRate+p.LossRate)) > 1e-12 {
			t.Errorf("SNR %g: PER %g != corrupted %g + lost %g", p.SNRdB, p.PER, p.CorruptedRate, p.LossRate)
		}
	}
}

// TestSweepCheckpointResume cancels a checkpointed sweep mid-run and
// asserts the resumed run finishes bit-identically to an uninterrupted
// reference, wherever the cancellation landed.
func TestSweepCheckpointResume(t *testing.T) {
	model := chip.NRF52832()
	ref, err := RunSweepContext(context.Background(), smallSweepConfig(2), model, Reception)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	interrupted := smallSweepConfig(2)
	interrupted.Checkpoint = path
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	partial, perr := RunSweepContext(ctx, interrupted, model, Reception)
	cancel()

	var final []SweepPoint
	if perr != nil {
		if !errors.Is(perr, context.Canceled) {
			t.Fatalf("interrupted sweep: %v", perr)
		}
		resumed := smallSweepConfig(2)
		resumed.Checkpoint = path
		final, err = RunSweepContext(context.Background(), resumed, model, Reception)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		// The run beat the cancellation — it already is the full result.
		final = partial
	}
	if mustJSON(t, final) != mustJSON(t, ref) {
		t.Errorf("resumed sweep differs from uninterrupted reference:\n%s\nvs\n%s",
			mustJSON(t, final), mustJSON(t, ref))
	}
}

// TestTable3AdaptiveStop asserts the CI-targeted mode stops channels
// early (clean channels converge fast) while still reporting sound
// intervals, and stays deterministic across worker counts.
func TestTable3AdaptiveStop(t *testing.T) {
	model := chip.CC1352R1()
	run := func(workers int) *Result {
		cfg := smallTable3Config(workers)
		cfg.FramesPerChannel = 64
		cfg.CIHalfWidth = 0.12
		res, err := RunContext(context.Background(), cfg, model, Reception)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	stopped := false
	for _, row := range ref.Rows {
		if row.Frames() < 64 {
			stopped = true
		}
		lo, hi := row.ValidInterval()
		rate := float64(row.Valid) / float64(row.Frames())
		if lo > rate || hi < rate {
			t.Errorf("ch %d: rate %g outside interval [%g, %g]", row.Channel, rate, lo, hi)
		}
	}
	if !stopped {
		t.Error("no channel stopped early at half-width 0.12")
	}
	if mustJSON(t, run(8)) != mustJSON(t, ref) {
		t.Error("adaptive stop not deterministic across worker counts")
	}
}

// TestPivotScanDeterministicAndSane runs the Monte-Carlo pivot survey
// and checks worker-count determinism plus the paper's qualitative
// ordering: LE 2M pivotable on every burst, LE 1M on none.
func TestPivotScanDeterministicAndSane(t *testing.T) {
	run := func(workers int) []PivotScanRow {
		cfg := DefaultPivotScanConfig()
		cfg.BurstsPerEntry = 12
		cfg.Workers = workers
		cfg.Obs = obs.NewRegistry()
		rows, err := RunPivotScan(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	ref := run(1)
	if mustJSON(t, run(8)) != mustJSON(t, ref) {
		t.Error("pivot scan not deterministic across worker counts")
	}

	byName := make(map[string]PivotScanRow, len(ref))
	for _, row := range ref {
		byName[row.Emulator] = row
		if row.Bursts != 12 {
			t.Errorf("%s: bursts = %d, want 12", row.Emulator, row.Bursts)
		}
		if row.PivotableLo > row.PivotableRate || row.PivotableHi < row.PivotableRate {
			t.Errorf("%s: rate %g outside interval [%g, %g]",
				row.Emulator, row.PivotableRate, row.PivotableLo, row.PivotableHi)
		}
	}
	le2m := byName["BLE LE 2M GFSK (m=0.5, BT=0.5)"]
	le1m := byName["BLE LE 1M GFSK (rate mismatch)"]
	if le2m.PivotableRate != 1 {
		t.Errorf("LE 2M pivotable rate = %g, want 1", le2m.PivotableRate)
	}
	if le1m.PivotableRate != 0 {
		t.Errorf("LE 1M pivotable rate = %g, want 0", le1m.PivotableRate)
	}
	if le2m.MeanScore <= le1m.MeanScore {
		t.Errorf("mean scores unordered: LE 2M %g <= LE 1M %g", le2m.MeanScore, le1m.MeanScore)
	}
}
