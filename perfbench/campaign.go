package main

import (
	"context"
	"sync"
	"time"

	"wazabee/internal/campaign"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// campaignTrials is the trials per (scenario, threshold) cell of one
// campaign-matrix round: 7 scenarios × 3 thresholds × 20 trials, plus
// 7 × 5 serial impact samples, is 455 scenario runs.
const campaignTrials = 20

// campaignBench is the campaign-matrix workload: the wazabeecampaign
// defaults (every scenario, the default thresholds and impact samples,
// frame tier) at campaignTrials trials per cell.
type campaignBench struct {
	seed      int64
	workers   int
	scenarios []campaign.Scenario
}

func setupCampaign(seed int64, workers int) (workload, error) {
	if err := warmLazyTables(); err != nil {
		return nil, err
	}
	scenarios, err := campaign.ParseScenarios("all")
	if err != nil {
		return nil, err
	}
	return &campaignBench{seed: seed, workers: workers, scenarios: scenarios}, nil
}

// round runs one RunMatrix. Traced, every scenario is wrapped so each
// trial (matrix cell or impact sample) records one trace.
func (c *campaignBench) round(ctx context.Context, l *layers) (roundResult, error) {
	trials := float64(len(c.scenarios) * (len(campaign.DefaultThresholds)*campaignTrials + campaign.DefaultImpactSamples))
	r := roundResult{ops: trials, allocOps: trials, counts: map[string]float64{"campaign.trials": trials}}
	scenarios := c.scenarios
	var impact impactClock
	if l != nil {
		scenarios = traceScenarios(c.scenarios, l, &impact)
	}
	watch := startWatch()
	m, err := campaign.RunMatrix(ctx, campaign.MatrixSpec{
		Scenarios: scenarios,
		Trials:    campaignTrials,
		Seed:      c.seed,
		Workers:   c.workers,
		Fidelity:  radio.FidelityFrame,
		Obs:       obs.NewRegistry(),
	})
	r.wall, r.cpu = watch.stop()
	if err != nil {
		return r, err
	}
	if l != nil {
		l.note("campaign.impact_s", time.Since(impact.start).Seconds())
	}
	r.output = m.Digest()
	return r, nil
}

func (c *campaignBench) layerMetrics(l *layers, _ []roundResult) (map[string]float64, error) {
	m := map[string]float64{}
	ms, us := float64(time.Millisecond), float64(time.Microsecond)
	for _, q := range []struct {
		base, span string
		unit       float64
		qs         []float64
	}{
		{"campaign.trial_ms", "campaign.trial", ms, []float64{0.5, 0.99}},
		{"campaign.setup_us", "campaign.setup", us, []float64{0.5, 0.99}},
		{"campaign.run_ms", "campaign.run", ms, []float64{0.5, 0.99}},
		{"campaign.score_us", "campaign.score", us, []float64{0.5}},
	} {
		if err := putQuantiles(m, q.base, l.dur[q.span], q.unit, q.qs...); err != nil {
			return nil, err
		}
	}
	for _, sc := range c.scenarios {
		m["campaign.run_ms."+sc.Name()+".p50"] = median(l.samples["campaign.run_ms."+sc.Name()])
	}
	m["campaign.impact_s"] = median(l.samples["campaign.impact_s"])
	return m, nil
}

// impactClock notes when RunMatrix's serial impact phase begins: the
// first Setup whose Options carry no threshold.
type impactClock struct {
	once  sync.Once
	start time.Time
}

// tracedScenario wraps a catalogue scenario so that each trial, Setup
// through Score, is one trace. Name, Description and Attack pass
// through, so the matrix is built exactly as from the bare scenario.
type tracedScenario struct {
	campaign.Scenario
	l      *layers
	impact *impactClock
}

func traceScenarios(scenarios []campaign.Scenario, l *layers, impact *impactClock) []campaign.Scenario {
	out := make([]campaign.Scenario, len(scenarios))
	for i, sc := range scenarios {
		out[i] = &tracedScenario{Scenario: sc, l: l, impact: impact}
	}
	return out
}

func (s *tracedScenario) Setup(opts campaign.Options) (campaign.Instance, error) {
	began := time.Now()
	if opts.Threshold == 0 {
		s.impact.once.Do(func() { s.impact.start = began })
	}
	tr := obs.NewTrace(s.Name())
	root := tr.Start("campaign.trial")
	setup := tr.Start("campaign.setup")
	inst, err := s.Scenario.Setup(opts)
	setup.End()
	if err != nil {
		root.End()
		return nil, err
	}
	return &tracedInstance{inner: inst, name: s.Name(), l: s.l, tr: tr, root: root, began: began}, nil
}

// tracedInstance closes its trial's trace when Score returns.
type tracedInstance struct {
	inner campaign.Instance
	name  string
	l     *layers
	tr    *obs.Trace
	root  *obs.Span
	began time.Time
}

func (t *tracedInstance) Run() error {
	run := t.tr.Start("campaign.run")
	err := t.inner.Run()
	t.l.note("campaign.run_ms."+t.name, float64(run.End())/float64(time.Millisecond))
	return err
}

func (t *tracedInstance) Score() campaign.Outcome {
	score := t.tr.Start("campaign.score")
	out := t.inner.Score()
	score.End()
	t.root.End()
	t.l.add(t.tr, time.Since(t.began))
	return out
}
