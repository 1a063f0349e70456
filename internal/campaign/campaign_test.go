package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// runScenario executes one catalogue scenario and returns its Outcome.
func runScenario(t *testing.T, name string, opts Options) Outcome {
	t.Helper()
	sc, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.Setup(opts)
	if err != nil {
		t.Fatalf("%s: setup: %v", name, err)
	}
	if err := inst.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return inst.Score()
}

// goldenSeed1 pins every scenario's full Outcome at seed 1 and default
// options. A diff here means the campaign's deterministic contract (or
// the mesh, monitor or energy model underneath it) changed — update the
// strings only for an intended behavior change.
var goldenSeed1 = map[string]string{
	"benign-baseline":      `{"scenario":"benign-baseline","seed":1,"detected":false,"detection_latency_ns":-1,"fingerprint_detected":false,"framing_detected":false,"alert_frames":0,"frames_injected":0,"frames_accepted":0,"nodes_disrupted":0,"channel_migrations":0,"readings":57,"energy_microjoules":3104770.1184,"energy_drained_microjoules":0}`,
	"scenario-a-injection": `{"scenario":"scenario-a-injection","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":true,"alert_frames":40,"alerts":{"ble-framing":26,"modulation-fingerprint":40},"frames_injected":40,"frames_accepted":40,"nodes_disrupted":0,"channel_migrations":0,"readings":97,"energy_microjoules":3104701.7664,"energy_drained_microjoules":0}`,
	"channel-migration":    `{"scenario":"channel-migration","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":4,"alerts":{"modulation-fingerprint":4},"frames_injected":4,"frames_accepted":4,"nodes_disrupted":4,"channel_migrations":4,"readings":17,"energy_microjoules":3104879.4816000005,"energy_drained_microjoules":0}`,
	"association-flood":    `{"scenario":"association-flood","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":189,"alerts":{"modulation-fingerprint":189},"frames_injected":190,"frames_accepted":190,"nodes_disrupted":0,"channel_migrations":0,"readings":57,"energy_microjoules":3103438.5984,"energy_drained_microjoules":0}`,
	"energy-depletion":     `{"scenario":"energy-depletion","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":330,"alerts":{"modulation-fingerprint":330},"frames_injected":334,"frames_accepted":330,"nodes_disrupted":0,"channel_migrations":0,"readings":58,"energy_microjoules":3104199.2064,"energy_drained_microjoules":10905.830399999999}`,
	"sleep-deprivation":    `{"scenario":"sleep-deprivation","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":165,"alerts":{"modulation-fingerprint":165},"frames_injected":167,"frames_accepted":165,"nodes_disrupted":0,"channel_migrations":0,"readings":222,"energy_microjoules":3103984.9728000006,"energy_drained_microjoules":12139.603200000003}`,
	"replay-impersonation": `{"scenario":"replay-impersonation","seed":1,"detected":true,"detection_latency_ns":0,"first_alert":"modulation-fingerprint","fingerprint_detected":true,"framing_detected":false,"alert_frames":40,"alerts":{"modulation-fingerprint":40},"frames_injected":40,"frames_accepted":40,"nodes_disrupted":0,"channel_migrations":0,"readings":97,"energy_microjoules":3104701.7664,"energy_drained_microjoules":0}`,
}

func TestScenarioGoldenOutcomes(t *testing.T) {
	for _, sc := range Catalogue() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			want, ok := goldenSeed1[sc.Name()]
			if !ok {
				t.Fatalf("no golden pinned for %s — add it", sc.Name())
			}
			out := runScenario(t, sc.Name(), Options{Seed: 1})
			got, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("outcome drifted from golden\n got: %s\nwant: %s", got, want)
			}
		})
	}
	if len(goldenSeed1) != len(Catalogue()) {
		t.Errorf("golden table has %d entries, catalogue %d", len(goldenSeed1), len(Catalogue()))
	}
}

func TestScenarioSameSeedByteIdentity(t *testing.T) {
	for _, sc := range Catalogue() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			a, err := json.Marshal(runScenario(t, sc.Name(), Options{Seed: 99}))
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(runScenario(t, sc.Name(), Options{Seed: 99}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("same seed, different outcomes:\n a: %s\n b: %s", a, b)
			}
		})
	}
}

func TestScenarioSemantics(t *testing.T) {
	benign := runScenario(t, "benign-baseline", Options{Seed: 3})
	if benign.Detected || benign.FramesInjected != 0 {
		t.Errorf("benign baseline detected or injecting: %+v", benign)
	}

	injection := runScenario(t, "scenario-a-injection", Options{Seed: 3})
	if !injection.FramingDetected {
		t.Error("scenario A left no BLE framing signature")
	}
	if injection.Readings <= benign.Readings {
		t.Errorf("spoofed readings not accepted: attack %d <= benign %d",
			injection.Readings, benign.Readings)
	}

	migration := runScenario(t, "channel-migration", Options{Seed: 3})
	if migration.ChannelMigrations == 0 || migration.NodesDisrupted == 0 {
		t.Errorf("channel migration moved nothing: %+v", migration)
	}
	if migration.FramingDetected {
		t.Error("tracker-style attack flagged BLE framing")
	}

	for _, name := range []string{"energy-depletion", "sleep-deprivation"} {
		out := runScenario(t, name, Options{Seed: 3})
		if out.EnergyDrainedMicrojoules <= 0 {
			t.Errorf("%s drained %.1f µJ, want > 0", name, out.EnergyDrainedMicrojoules)
		}
	}

	replay := runScenario(t, "replay-impersonation", Options{Seed: 3})
	if replay.FramesInjected == 0 || replay.FramesAccepted == 0 {
		t.Errorf("replay injected nothing: %+v", replay)
	}
}

func TestBenignNoFalseAlertsAcrossSeeds(t *testing.T) {
	// The false-positive regression: at the calibrated default
	// threshold, three independent benign meshes must raise zero
	// framing and zero fingerprint alerts over their whole run.
	for _, seed := range []int64{1, 2, 3} {
		out := runScenario(t, "benign-baseline", Options{Seed: seed})
		for _, kind := range []string{"ble-framing", "modulation-fingerprint"} {
			if n := out.Alerts[kind]; n != 0 {
				t.Errorf("seed %d: %d %s false positives on benign traffic", seed, n, kind)
			}
		}
		if out.Detected {
			t.Errorf("seed %d: benign baseline detected (%s)", seed, out.FirstAlert)
		}
	}
}

func TestMatrixWorkerCountIndependence(t *testing.T) {
	sc, err := ByName("scenario-a-injection")
	if err != nil {
		t.Fatal(err)
	}
	spec := MatrixSpec{
		Scenarios:     []Scenario{sc},
		Thresholds:    []float64{0.27, 0.45},
		Trials:        20,
		Seed:          11,
		ImpactSamples: 1,
	}
	var digests []string
	var jsons [][]byte
	for _, workers := range []int{1, 3} {
		s := spec
		s.Workers = workers
		m, err := RunMatrix(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, m.Digest())
		jsons = append(jsons, buf.Bytes())
	}
	if digests[0] != digests[1] {
		t.Errorf("digest differs across worker counts: %s vs %s", digests[0], digests[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Error("matrix JSON differs across worker counts")
	}
}

func TestMatrixShape(t *testing.T) {
	sc, err := ByName("channel-migration")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunMatrix(context.Background(), MatrixSpec{
		Scenarios:     []Scenario{sc},
		Thresholds:    []float64{0.27},
		Trials:        5,
		Seed:          4,
		ImpactSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The benign baseline rides along for the FPR column.
	if len(m.Scenarios) != 2 || m.Scenarios[0] != "benign-baseline" {
		t.Fatalf("scenarios = %v, want benign first", m.Scenarios)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(m.Cells))
	}
	cell, ok := m.Cell("channel-migration", 0.27)
	if !ok {
		t.Fatal("channel-migration cell missing")
	}
	if !cell.Attack || cell.Trials != 5 {
		t.Errorf("cell = %+v", cell)
	}
	any, ok := cell.ROC(DetectorAny)
	if !ok || any.Trials != 5 {
		t.Fatalf("any-detector row = %+v, %v", any, ok)
	}
	if any.Lo > any.Rate || any.Rate > any.Hi {
		t.Errorf("Wilson interval [%v,%v] does not bracket rate %v", any.Lo, any.Hi, any.Rate)
	}
	total := 0
	for _, class := range Classes {
		total += cell.Counts[class]
	}
	if total != 5 {
		t.Errorf("class counts sum to %d, want 5: %v", total, cell.Counts)
	}
	if len(m.Impacts) != 2 {
		t.Errorf("impacts = %d, want 2", len(m.Impacts))
	}

	var csvBuf bytes.Buffer
	if err := m.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if want := 1 + len(m.Cells)*len(Detectors); len(lines) != want {
		t.Errorf("CSV rows = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "scenario,threshold,attack,detector") {
		t.Errorf("CSV header = %q", lines[0])
	}

	var txt bytes.Buffer
	if err := m.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"channel-migration", "benign-baseline", "TPR", "FPR", "impact"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text table missing %q", want)
		}
	}
}

func TestParseScenarios(t *testing.T) {
	all, err := ParseScenarios("all")
	if err != nil || len(all) != len(Catalogue()) {
		t.Fatalf("ParseScenarios(all) = %d scenarios, err %v", len(all), err)
	}
	empty, err := ParseScenarios("")
	if err != nil || len(empty) != len(Catalogue()) {
		t.Fatalf("ParseScenarios(\"\") = %d scenarios, err %v", len(empty), err)
	}
	// Selection preserves catalogue order and dedupes.
	sel, err := ParseScenarios("channel-migration, benign-baseline,channel-migration")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name() != "benign-baseline" || sel[1].Name() != "channel-migration" {
		names := make([]string, len(sel))
		for i, s := range sel {
			names[i] = s.Name()
		}
		t.Errorf("selection = %v, want catalogue-ordered dedupe", names)
	}
	if _, err := ParseScenarios("no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ParseScenarios(" , "); err == nil {
		t.Error("blank selection accepted")
	}
}

func TestOutcomeClassMapping(t *testing.T) {
	cases := []struct {
		fp, fr bool
		want   string
	}{
		{false, false, ClassUndetected},
		{true, false, ClassFingerprint},
		{false, true, ClassFraming},
		{true, true, ClassBoth},
	}
	for _, tc := range cases {
		o := Outcome{FingerprintDetected: tc.fp, FramingDetected: tc.fr}
		if got := o.class(); got != tc.want {
			t.Errorf("class(fp=%v, fr=%v) = %s, want %s", tc.fp, tc.fr, got, tc.want)
		}
	}
}

func TestMatrixSpecValidation(t *testing.T) {
	for _, spec := range []MatrixSpec{
		{Thresholds: []float64{-0.1}},
		// A NaN threshold once ran the whole sweep and failed only at
		// the JSON write.
		{Thresholds: []float64{0.2, math.NaN()}},
		{Thresholds: []float64{math.Inf(1)}},
		// A NaN SNR once crashed the calibrated tier mid-sweep.
		{SNRdB: math.NaN()},
		{SNRdB: math.Inf(-1)},
	} {
		if _, err := RunMatrix(context.Background(), spec); err == nil {
			t.Errorf("spec with thresholds %v, SNR %g dB accepted", spec.Thresholds, spec.SNRdB)
		}
	}
}
