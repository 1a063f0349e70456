package campaign

import (
	"context"
	"testing"

	"wazabee/internal/obs"
)

// trialAllocBounds caps each scenario's allocations per trial, Setup
// through Score at default options. Each bound sits about 25% above the
// count measured when it was set (benign 107, scenario A 190, channel
// migration 155, association flood 317, energy depletion 564, sleep
// deprivation 396, replay 164); before trials stopped building
// registries, flight recorders, alert text and a frame per forgery the
// counts were 416, 752, 515, 1,797, 3,191, 2,040 and 721.
var trialAllocBounds = map[string]float64{
	"benign-baseline":      135,
	"scenario-a-injection": 240,
	"channel-migration":    195,
	"association-flood":    400,
	"energy-depletion":     705,
	"sleep-deprivation":    495,
	"replay-impersonation": 205,
}

// TestTrialAllocations guards what one trial allocates: a registry,
// recorder or per-frame allocation back on the trial path multiplies
// over every trial of a matrix.
func TestTrialAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, sc := range Catalogue() {
		t.Run(sc.Name(), func(t *testing.T) {
			bound, ok := trialAllocBounds[sc.Name()]
			if !ok {
				t.Fatalf("no allocation bound for %s — add one", sc.Name())
			}
			// AllocsPerRun runs once to warm up and then 20 times:
			// seeds 1 (the warm-up), 2 to 20 and 1 again.
			var seed int64
			allocs := testing.AllocsPerRun(20, func() {
				seed = seed%20 + 1
				inst, err := sc.Setup(Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if err := inst.Run(); err != nil {
					t.Fatal(err)
				}
				inst.Score()
			})
			if allocs > bound {
				t.Errorf("a trial allocates %.1f times, want at most %v", allocs, bound)
			}
		})
	}
}

// TestMatrixLeavesProcessDefaultsUntouched checks that a matrix given
// its own registry writes nothing process-wide: no trial's mesh,
// medium or monitor falls back to obs.Default(), and no mesh records to
// obs.DefaultFlight(), even with parallel workers.
func TestMatrixLeavesProcessDefaultsUntouched(t *testing.T) {
	text, recorded := obs.Default().PrometheusText(), obs.DefaultFlight().Recorded()
	reg := obs.NewRegistry()
	if _, err := RunMatrix(context.Background(), MatrixSpec{
		Trials:        3,
		Seed:          5,
		Workers:       2,
		ImpactSamples: 1,
		Obs:           reg,
	}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().PrometheusText(); got != text {
		t.Errorf("the process default registry changed:\nbefore:\n%s\nafter:\n%s", text, got)
	}
	if got := obs.DefaultFlight().Recorded(); got != recorded {
		t.Errorf("the process flight recorder went from %d to %d events", recorded, got)
	}
	if reg.Counter(TrialsMetric).Value() == 0 {
		t.Errorf("the matrix counted no trials on its own registry")
	}
}
