package experiment

import (
	"context"
	"fmt"

	"wazabee/internal/experiment/runner"
	"wazabee/internal/modsim"
	"wazabee/internal/obs"
)

// PivotableThreshold is the similarity score above which a modulation
// pair is considered practically pivotable (the WazaBee LE 2M / O-QPSK
// pair scores well above it; LE 1M collapses well below).
const PivotableThreshold = 0.6

// pivotClasses is the outcome class set of a pivot-scan trial.
var pivotClasses = []string{"pivotable", "marginal"}

// PivotScanConfig parameterises a Monte-Carlo pivotability survey.
type PivotScanConfig struct {
	// BurstsPerEntry is the number of random representative bursts each
	// catalogue entry is scored on.
	BurstsPerEntry int
	// SamplesPerSymbol is the oversampling factor.
	SamplesPerSymbol int
	// Workers bounds the Monte-Carlo worker pool; 0 means
	// runtime.GOMAXPROCS and a negative count is an error. Results do
	// not depend on the value.
	Workers int
	// Checkpoint, when non-empty, persists completed trial shards to
	// this path for cancellation/resume.
	Checkpoint string
	// CIHalfWidth, when non-zero, stops each entry once the 95% Wilson
	// half-width of its pivotable rate reaches this target. A negative,
	// NaN or infinite target is an error.
	CIHalfWidth float64
	// Seed drives all randomness: each burst's score derives from
	// (Seed, entry name, burst index) alone.
	Seed int64
	// Obs, when non-nil, receives the scan's runner telemetry, merged in
	// when the scan completes. Nil merges into the process default
	// registry.
	Obs *obs.Registry
}

// DefaultPivotScanConfig surveys the catalogue on 32 bursts per entry.
func DefaultPivotScanConfig() PivotScanConfig {
	return PivotScanConfig{
		BurstsPerEntry:   32,
		SamplesPerSymbol: 8,
		Seed:             1,
	}
}

// PivotScanRow is one catalogue entry's Monte-Carlo survey result.
type PivotScanRow struct {
	Emulator string
	Target   string
	// Bursts is the number of random bursts scored (BurstsPerEntry,
	// unless adaptive stopping ended the entry early).
	Bursts int
	// MeanScore is the similarity score averaged over the bursts.
	MeanScore float64
	// PivotableRate is the fraction of bursts scoring at least
	// PivotableThreshold, with its 95% Wilson interval.
	PivotableRate float64
	PivotableLo   float64
	PivotableHi   float64
}

// RunPivotScan surveys the modsim catalogue against the 802.15.4 O-QPSK
// target over many random representative bursts on the sharded
// Monte-Carlo runner — where SurveyAgainstOQPSK scores one burst per
// entry, the scan distributes hundreds and reports the mean similarity
// and the fraction of bursts above PivotableThreshold with a 95% Wilson
// interval. Each burst's randomness derives from (Seed, entry, burst)
// alone, so results are bit-identical at any worker count.
func RunPivotScan(ctx context.Context, cfg PivotScanConfig) ([]PivotScanRow, error) {
	if cfg.BurstsPerEntry < 1 {
		return nil, fmt.Errorf("experiment: bursts per entry %d < 1", cfg.BurstsPerEntry)
	}
	tgt, err := modsim.OQPSKTarget(cfg.SamplesPerSymbol)
	if err != nil {
		return nil, err
	}
	catalogue := modsim.Catalogue()
	entryOf := make(map[string]modsim.CatalogueEntry, len(catalogue))
	points := make([]runner.Point, len(catalogue))
	for i, e := range catalogue {
		points[i] = runner.Point{Key: e.Name, Trials: cfg.BurstsPerEntry}
		entryOf[e.Name] = e
	}
	reg := obs.NewRegistry()
	spec := runner.Spec{
		Name:       "pivotscan",
		Seed:       cfg.Seed,
		Points:     points,
		Workers:    cfg.Workers,
		Classes:    pivotClasses,
		Checkpoint: cfg.Checkpoint,
		Obs:        reg,
	}
	if cfg.CIHalfWidth != 0 {
		spec.Stop = &runner.Stop{Class: "pivotable", HalfWidth: cfg.CIHalfWidth}
	}

	res, err := runner.Run(ctx, spec, func(ctx context.Context, seed int64, point runner.Point, burst int) (runner.Outcome, error) {
		ps, err := modsim.ScoreEntry(entryOf[point.Key], tgt, cfg.SamplesPerSymbol, seed)
		if err != nil {
			return runner.Outcome{}, err
		}
		class := "marginal"
		if ps.Score >= PivotableThreshold {
			class = "pivotable"
		}
		return runner.Outcome{Class: class, Value: ps.Score}, nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]PivotScanRow, len(res.Points))
	for i, pr := range res.Points {
		row := PivotScanRow{
			Emulator:  pr.Point.Key,
			Target:    tgt.Name,
			Bursts:    pr.Trials,
			MeanScore: pr.Mean,
		}
		if est, ok := pr.Estimate("pivotable"); ok {
			row.PivotableRate = est.Rate
			row.PivotableLo, row.PivotableHi = est.Lo, est.Hi
		}
		out[i] = row
	}
	if err := obs.Or(cfg.Obs).Merge(reg); err != nil {
		return nil, err
	}
	return out, nil
}
