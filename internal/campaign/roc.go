package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"wazabee/internal/experiment/runner"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// Metric families published by the campaign driver. The runner's own
// wazabee_runner_* families cover trial-level progress; these summarise
// the campaign sweep itself.
const (
	// CellsMetric counts (scenario, threshold) cells swept.
	CellsMetric = "wazabee_campaign_cells_total"
	// TrialsMetric counts scenario runs executed, including impact samples.
	TrialsMetric = "wazabee_campaign_trials_total"
	// DetectionsMetric counts trials on which each detector fired.
	DetectionsMetric = "wazabee_campaign_detections_total"
	// ImpactSamplesMetric counts the serial impact-measurement runs.
	ImpactSamplesMetric = "wazabee_campaign_impact_samples_total"
)

// DefaultThresholds is the IDS operating-point sweep: 0.22 sits inside
// the native O-QPSK tail (false positives become measurable), 0.27 is
// the calibrated default, 0.45 is past the diverted GFSK mean (true
// positives become scarce). Together they trace a non-degenerate ROC.
var DefaultThresholds = []float64{0.22, 0.27, 0.45}

// DefaultImpactSamples is how many serial scenario runs feed the
// per-scenario impact averages.
const DefaultImpactSamples = 5

// Outcome classes the matrix tallies. A trial's class names which
// detectors fired inside the attack window.
const (
	ClassUndetected  = "undetected"
	ClassFingerprint = "fingerprint"
	ClassFraming     = "framing"
	ClassBoth        = "framing+fingerprint"
)

// Classes is the full outcome class set, in report order.
var Classes = []string{ClassUndetected, ClassFingerprint, ClassFraming, ClassBoth}

// class maps a scored outcome onto the runner's class alphabet.
func (o *Outcome) class() string {
	switch {
	case o.FramingDetected && o.FingerprintDetected:
		return ClassBoth
	case o.FramingDetected:
		return ClassFraming
	case o.FingerprintDetected:
		return ClassFingerprint
	default:
		return ClassUndetected
	}
}

// MatrixSpec parameterises a campaign sweep: every selected scenario
// crossed with every IDS threshold, each cell a Monte-Carlo point.
type MatrixSpec struct {
	// Scenarios selects catalogue entries; empty means the whole
	// catalogue. The benign baseline is always included — it supplies
	// the false-positive rate for every threshold.
	Scenarios []Scenario
	// Thresholds is the IDS operating-point sweep; empty selects
	// DefaultThresholds.
	Thresholds []float64
	// Trials is the Monte-Carlo sample size per cell; <= 0 means 200.
	Trials int
	// Seed roots every trial's derived seed.
	Seed int64
	// Workers bounds the runner's pool; 0 means GOMAXPROCS and a
	// negative count is an error.
	Workers int
	// Fidelity, SNRdB, Duration, Devices, Chip parameterise every
	// scenario instance (zero values select the Options defaults).
	Fidelity radio.Fidelity
	SNRdB    float64
	Duration time.Duration
	Devices  int
	Chip     string
	// ImpactSamples is the number of serial runs behind each scenario's
	// impact averages; <= 0 means DefaultImpactSamples.
	ImpactSamples int
	// Checkpoint, when non-empty, makes the sweep resumable.
	Checkpoint string
	// Obs receives campaign and runner telemetry; nil falls back to the
	// process default registry.
	Obs *obs.Registry
}

// DefaultTrials is the per-cell sample size when the spec names none.
const DefaultTrials = 200

func (s *MatrixSpec) fill() error {
	if len(s.Scenarios) == 0 {
		s.Scenarios = Catalogue()
	} else {
		hasBenign := false
		for _, sc := range s.Scenarios {
			if !sc.Attack() {
				hasBenign = true
			}
		}
		if !hasBenign {
			benign, err := ByName("benign-baseline")
			if err != nil {
				return err
			}
			s.Scenarios = append([]Scenario{benign}, s.Scenarios...)
		}
	}
	if len(s.Thresholds) == 0 {
		s.Thresholds = append([]float64(nil), DefaultThresholds...)
	}
	for _, th := range s.Thresholds {
		if math.IsNaN(th) || math.IsInf(th, 1) || th <= 0 {
			return fmt.Errorf("campaign: threshold %g, want a finite value > 0", th)
		}
	}
	if err := (radio.Link{SNRdB: s.SNRdB}).Validate(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if s.Trials <= 0 {
		s.Trials = DefaultTrials
	}
	if s.ImpactSamples <= 0 {
		s.ImpactSamples = DefaultImpactSamples
	}
	return nil
}

// options builds one trial's scenario Options from the sweep parameters.
func (s *MatrixSpec) options(seed int64, threshold float64) Options {
	return Options{
		Seed:      seed,
		Fidelity:  s.Fidelity,
		Threshold: threshold,
		SNRdB:     s.SNRdB,
		Duration:  s.Duration,
		Devices:   s.Devices,
		Chip:      s.Chip,
	}
}

// CellKey names one (scenario, threshold) cell — the runner point key
// and the checkpoint identity.
func CellKey(scenario string, threshold float64) string {
	return fmt.Sprintf("%s@%.3f", scenario, threshold)
}

// DetectorROC is one detector's rate at one cell, with its 95% Wilson
// interval. For attack scenarios the rate is a true-positive rate; for
// the benign baseline it is the false-positive rate at that threshold.
type DetectorROC struct {
	Detector string  `json:"detector"`
	Count    int     `json:"count"`
	Trials   int     `json:"trials"`
	Rate     float64 `json:"rate"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
}

// Detector names used in DetectorROC rows.
const (
	DetectorAny         = "any"
	DetectorFingerprint = "fingerprint"
	DetectorFraming     = "framing"
)

// Detectors lists the ROC detector columns in report order.
var Detectors = []string{DetectorAny, DetectorFingerprint, DetectorFraming}

// Cell is one (scenario, threshold) cell of the matrix.
type Cell struct {
	Scenario  string  `json:"scenario"`
	Threshold float64 `json:"threshold"`
	// Attack distinguishes TPR cells from FPR (benign) cells.
	Attack bool `json:"attack"`
	Trials int  `json:"trials"`
	// Counts tallies trials by outcome class.
	Counts map[string]int `json:"counts"`
	// Detection holds one row per detector, in Detectors order.
	Detection []DetectorROC `json:"detection"`
	// MeanLatencySeconds averages detection latency over the detected
	// trials only; 0 when nothing was detected.
	MeanLatencySeconds float64 `json:"mean_latency_seconds"`
}

// ROC returns the named detector's row and false when absent.
func (c *Cell) ROC(detector string) (DetectorROC, bool) {
	for _, d := range c.Detection {
		if d.Detector == detector {
			return d, true
		}
	}
	return DetectorROC{}, false
}

// Impact is one scenario's averaged attack-effect measurements over the
// serial impact samples (taken at the default threshold — detection
// thresholds do not feed back into the mesh, so impact is
// threshold-independent).
type Impact struct {
	Scenario                 string  `json:"scenario"`
	Samples                  int     `json:"samples"`
	FramesInjected           float64 `json:"frames_injected"`
	FramesAccepted           float64 `json:"frames_accepted"`
	NodesDisrupted           float64 `json:"nodes_disrupted"`
	ChannelMigrations        float64 `json:"channel_migrations"`
	Readings                 float64 `json:"readings"`
	EnergyMicrojoules        float64 `json:"energy_microjoules"`
	EnergyDrainedMicrojoules float64 `json:"energy_drained_microjoules"`
}

// Matrix is a completed campaign sweep: the attack-vs-detection ROC
// matrix plus per-scenario impact averages. It contains no timing, so
// byte-comparing two marshalled matrices is a valid determinism check.
type Matrix struct {
	Name       string    `json:"name"`
	Seed       int64     `json:"seed"`
	Fidelity   string    `json:"fidelity"`
	Trials     int       `json:"trials_per_cell"`
	Scenarios  []string  `json:"scenarios"`
	Thresholds []float64 `json:"thresholds"`
	Cells      []Cell    `json:"cells"`
	Impacts    []Impact  `json:"impacts"`
}

// Cell returns the named cell and false when absent.
func (m *Matrix) Cell(scenario string, threshold float64) (*Cell, bool) {
	for i := range m.Cells {
		if m.Cells[i].Scenario == scenario && m.Cells[i].Threshold == threshold {
			return &m.Cells[i], true
		}
	}
	return nil, false
}

// RunMatrix executes the sweep: every (scenario, threshold) cell as a
// Monte-Carlo point on the experiment runner (bit-identical at any
// worker count, resumable through spec.Checkpoint), then the serial
// impact samples. The benign baseline rides along at every threshold,
// so each attack cell's TPR has a same-threshold FPR to compare with.
func RunMatrix(ctx context.Context, spec MatrixSpec) (*Matrix, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	reg := obs.Or(spec.Obs)
	trialsC := reg.Counter(TrialsMetric)

	byKey := make(map[string]struct {
		sc Scenario
		th float64
	}, len(spec.Scenarios)*len(spec.Thresholds))
	var points []runner.Point
	for _, sc := range spec.Scenarios {
		for _, th := range spec.Thresholds {
			key := CellKey(sc.Name(), th)
			byKey[key] = struct {
				sc Scenario
				th float64
			}{sc, th}
			points = append(points, runner.Point{Key: key, Trials: spec.Trials})
		}
	}
	reg.Counter(CellsMetric).Add(uint64(len(points)))

	trial := func(ctx context.Context, seed int64, point runner.Point, _ int) (runner.Outcome, error) {
		cell, ok := byKey[point.Key]
		if !ok {
			return runner.Outcome{}, fmt.Errorf("campaign: unknown cell %q", point.Key)
		}
		inst, err := cell.sc.Setup(spec.options(seed, cell.th))
		if err != nil {
			return runner.Outcome{}, err
		}
		if err := inst.Run(); err != nil {
			return runner.Outcome{}, err
		}
		out := inst.Score()
		trialsC.Inc()
		latency := 0.0
		if out.Detected {
			latency = out.DetectionLatency.Seconds()
		}
		return runner.Outcome{Class: out.class(), Value: latency}, nil
	}

	res, err := runner.Run(ctx, runner.Spec{
		Name:       "campaign",
		Seed:       spec.Seed,
		Points:     points,
		Workers:    spec.Workers,
		Classes:    Classes,
		Checkpoint: spec.Checkpoint,
		Obs:        spec.Obs,
	}, trial)
	if err != nil {
		return nil, err
	}

	m := &Matrix{
		Name:       "campaign",
		Seed:       spec.Seed,
		Fidelity:   resolveFidelity(spec.Fidelity).String(),
		Trials:     spec.Trials,
		Thresholds: append([]float64(nil), spec.Thresholds...),
	}
	for _, sc := range spec.Scenarios {
		m.Scenarios = append(m.Scenarios, sc.Name())
	}
	for _, pr := range res.Points {
		cell, ok := byKey[pr.Point.Key]
		if !ok {
			return nil, fmt.Errorf("campaign: runner returned unknown point %q", pr.Point.Key)
		}
		m.Cells = append(m.Cells, reduceCell(cell.sc, cell.th, &pr, reg))
	}

	impacts, err := measureImpacts(ctx, &spec, reg)
	if err != nil {
		return nil, err
	}
	m.Impacts = impacts
	return m, nil
}

// resolveFidelity mirrors Options.fill's default for reporting.
func resolveFidelity(f radio.Fidelity) radio.Fidelity {
	if f == 0 {
		return radio.FidelityFrame
	}
	return f
}

// reduceCell folds one runner point into its matrix cell.
func reduceCell(sc Scenario, th float64, pr *runner.PointResult, reg *obs.Registry) Cell {
	c := Cell{
		Scenario:  sc.Name(),
		Threshold: th,
		Attack:    sc.Attack(),
		Trials:    pr.Trials,
		Counts:    pr.Counts,
	}
	detected := pr.Trials - pr.Counts[ClassUndetected]
	rows := []struct {
		name  string
		count int
	}{
		{DetectorAny, detected},
		{DetectorFingerprint, pr.Counts[ClassFingerprint] + pr.Counts[ClassBoth]},
		{DetectorFraming, pr.Counts[ClassFraming] + pr.Counts[ClassBoth]},
	}
	for _, row := range rows {
		lo, hi := runner.Wilson(row.count, pr.Trials)
		rate := 0.0
		if pr.Trials > 0 {
			rate = float64(row.count) / float64(pr.Trials)
		}
		c.Detection = append(c.Detection, DetectorROC{
			Detector: row.name, Count: row.count, Trials: pr.Trials,
			Rate: rate, Lo: lo, Hi: hi,
		})
		reg.Counter(DetectionsMetric, "detector", row.name).Add(uint64(row.count))
	}
	// pr.Mean averages latency over every counted trial (undetected
	// contribute 0); renormalise to the detected population.
	if detected > 0 {
		c.MeanLatencySeconds = pr.Mean * float64(pr.Trials) / float64(detected)
	}
	return c
}

// measureImpacts runs the serial impact samples: a few full scenario
// runs per catalogue entry, averaged. Serial execution after the
// parallel matrix keeps the whole campaign's output independent of the
// worker count.
func measureImpacts(ctx context.Context, spec *MatrixSpec, reg *obs.Registry) ([]Impact, error) {
	samplesC := reg.Counter(ImpactSamplesMetric)
	trialsC := reg.Counter(TrialsMetric)
	var impacts []Impact
	for _, sc := range spec.Scenarios {
		imp := Impact{Scenario: sc.Name(), Samples: spec.ImpactSamples}
		for i := 0; i < spec.ImpactSamples; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			seed := runner.TrialSeed(spec.Seed, sc.Name()+"/impact", i)
			inst, err := sc.Setup(spec.options(seed, 0))
			if err != nil {
				return nil, err
			}
			if err := inst.Run(); err != nil {
				return nil, fmt.Errorf("campaign: impact sample %d of %s: %w", i, sc.Name(), err)
			}
			out := inst.Score()
			imp.FramesInjected += float64(out.FramesInjected)
			imp.FramesAccepted += float64(out.FramesAccepted)
			imp.NodesDisrupted += float64(out.NodesDisrupted)
			imp.ChannelMigrations += float64(out.ChannelMigrations)
			imp.Readings += float64(out.Readings)
			imp.EnergyMicrojoules += out.EnergyMicrojoules
			imp.EnergyDrainedMicrojoules += out.EnergyDrainedMicrojoules
			samplesC.Inc()
			trialsC.Inc()
		}
		n := float64(spec.ImpactSamples)
		imp.FramesInjected /= n
		imp.FramesAccepted /= n
		imp.NodesDisrupted /= n
		imp.ChannelMigrations /= n
		imp.Readings /= n
		imp.EnergyMicrojoules /= n
		imp.EnergyDrainedMicrojoules /= n
		impacts = append(impacts, imp)
	}
	return impacts, nil
}

// WriteJSON emits the matrix as indented JSON. The encoding is
// deterministic (struct field order; map keys sorted), so the bytes —
// and Digest — are a same-seed identity check at any worker count.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Digest is the SHA-256 of the matrix's compact JSON encoding.
func (m *Matrix) Digest() string {
	b, err := json.Marshal(m)
	if err != nil {
		// Matrix contains only marshalable field types.
		panic(fmt.Sprintf("campaign: marshal matrix: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// WriteCSV emits one row per (cell, detector): the flat form for
// plotting ROC curves.
func (m *Matrix) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scenario", "threshold", "attack", "detector",
		"count", "trials", "rate", "lo", "hi", "mean_latency_seconds",
	}); err != nil {
		return err
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		for _, d := range c.Detection {
			rec := []string{
				c.Scenario,
				strconv.FormatFloat(c.Threshold, 'f', 3, 64),
				strconv.FormatBool(c.Attack),
				d.Detector,
				strconv.Itoa(d.Count),
				strconv.Itoa(d.Trials),
				strconv.FormatFloat(d.Rate, 'f', 4, 64),
				strconv.FormatFloat(d.Lo, 'f', 4, 64),
				strconv.FormatFloat(d.Hi, 'f', 4, 64),
				strconv.FormatFloat(c.MeanLatencySeconds, 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText renders the human-readable ROC table: one block per
// threshold, one row per scenario, the detection rate (TPR, or FPR on
// the benign row) with its Wilson interval per detector, and the mean
// detection latency.
func (m *Matrix) WriteText(w io.Writer) error {
	for _, th := range m.Thresholds {
		if _, err := fmt.Fprintf(w, "threshold %.3f (trials/cell %d, fidelity %s, seed %d)\n",
			th, m.Trials, m.Fidelity, m.Seed); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-22s %-5s %-22s %-22s %-22s %s\n",
			"scenario", "kind", "any", "fingerprint", "framing", "latency"); err != nil {
			return err
		}
		for _, name := range m.Scenarios {
			c, ok := m.Cell(name, th)
			if !ok {
				continue
			}
			kind := "FPR"
			if c.Attack {
				kind = "TPR"
			}
			row := fmt.Sprintf("  %-22s %-5s", c.Scenario, kind)
			for _, det := range Detectors {
				d, _ := c.ROC(det)
				row += fmt.Sprintf(" %-22s", fmt.Sprintf("%.3f [%.3f,%.3f]", d.Rate, d.Lo, d.Hi))
			}
			if any, _ := c.ROC(DetectorAny); any.Count > 0 {
				row += fmt.Sprintf(" %.2fs", c.MeanLatencySeconds)
			} else {
				row += " -"
			}
			if _, err := fmt.Fprintln(w, row); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(m.Impacts) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "impact (mean of %d runs/scenario)\n", m.Impacts[0].Samples); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-22s %9s %9s %10s %9s %9s %12s %12s\n",
		"scenario", "injected", "accepted", "disrupted", "migrated", "readings", "energy(uJ)", "drained(uJ)"); err != nil {
		return err
	}
	for _, imp := range m.Impacts {
		if _, err := fmt.Fprintf(w, "  %-22s %9.1f %9.1f %10.1f %9.1f %9.1f %12.1f %12.1f\n",
			imp.Scenario, imp.FramesInjected, imp.FramesAccepted, imp.NodesDisrupted,
			imp.ChannelMigrations, imp.Readings, imp.EnergyMicrojoules,
			imp.EnergyDrainedMicrojoules); err != nil {
			return err
		}
	}
	return nil
}
