package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wazabee/internal/campaign"
	"wazabee/internal/experiment"
	"wazabee/internal/obs"
)

// span builds a finished span for hand-made trees.
func span(name string, start, dur int64, children ...*obs.Span) *obs.Span {
	return &obs.Span{Name: name, StartNs: start, DurNs: dur, Children: children}
}

func TestSelfTimeNestedTree(t *testing.T) {
	leaf := span("leaf", 20, 10)
	a := span("a", 10, 30, leaf)
	b := span("b", 50, 40)
	root := span("root", 0, 100, a, b)
	for _, c := range []struct {
		s    *obs.Span
		want int64
	}{{root, 30}, {a, 20}, {leaf, 10}, {b, 40}} {
		if got := selfNs(c.s); got != c.want {
			t.Errorf("self(%s) = %d, want %d", c.s.Name, got, c.want)
		}
	}
	// Overlapping children count once; a child running past its parent
	// is clipped to it: covered is [10,80) and [90,100).
	p := span("p", 0, 100, span("x", 10, 50), span("y", 40, 40), span("z", 90, 30))
	if got := selfNs(p); got != 20 {
		t.Errorf("self with overlapping children = %d, want 20", got)
	}

	l := newLayers("leaf")
	l.addRoots([]*obs.Span{root}, 100)
	for name, want := range map[string]float64{"root": 30, "a": 20, "leaf": 10, "b": 40} {
		if got := l.selfSum[name]; got != want {
			t.Errorf("selfSum[%s] = %g, want %g", name, got, want)
		}
	}
	if got := l.share("b"); got != 0.4 {
		t.Errorf("share(b) = %g, want 0.4", got)
	}
	if len(l.dur["leaf"]) != 1 || len(l.dur["a"]) != 0 {
		t.Errorf("per-span samples kept for %v, want only leaf", l.dur)
	}
	if err := l.reconcile(); err != nil {
		t.Error(err)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if _, err := quantile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if v, err := quantile(ramp(1000), 0.99); err != nil || v < 990 || v > 991 {
		t.Errorf("p99 of 1..1000 = %g, %v", v, err)
	}
	if _, err := quantile(ramp(99), 0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	if v, err := quantile(ramp(4), 0.5); err != nil || v != 2.5 {
		t.Errorf("median of 1..4 = %g, %v", v, err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("median of no samples was reported")
	}
	if pctName(0.99) != "p99" || pctName(0.5) != "p50" {
		t.Errorf("names %s, %s", pctName(0.99), pctName(0.5))
	}
	m := map[string]float64{}
	if err := putQuantiles(m, "x_us", ramp(100), 1, 0.5, 0.99); err == nil {
		t.Error("putQuantiles named a p99 from 100 samples")
	}
}

func TestReconcileFailsOnDoctoredTrace(t *testing.T) {
	trace := func() (*obs.Trace, *obs.Span, time.Duration) {
		began := time.Now()
		tr := obs.NewTrace("op")
		root := tr.Start("root")
		child := tr.Start("child")
		time.Sleep(20 * time.Millisecond)
		child.End()
		root.End()
		return tr, child, time.Since(began)
	}

	tr, _, worker := trace()
	honest := newLayers()
	honest.add(tr, worker)
	if err := honest.reconcile(); err != nil {
		t.Fatalf("honest trace: %v", err)
	}

	// A child that outlives its parent, as a span from another op would.
	tr, child, worker := trace()
	child.DurNs *= 3
	doctored := newLayers()
	doctored.add(tr, worker)
	if err := doctored.reconcile(); err == nil {
		t.Error("a child longer than its parent reconciled")
	}

	// Spans that miss part of the time the worker spent.
	tr, _, worker = trace()
	short := newLayers()
	short.add(tr, 2*worker)
	if err := short.reconcile(); err == nil {
		t.Error("spans covering half the worker time reconciled")
	}
}

func TestTracedScenarioPassesThrough(t *testing.T) {
	cat := campaign.Catalogue()
	for i, w := range traceScenarios(cat, newLayers(), &impactClock{}) {
		if w.Name() != cat[i].Name() || w.Attack() != cat[i].Attack() || w.Description() != cat[i].Description() {
			t.Errorf("wrapped %s reads as %q attack=%v %q", cat[i].Name(), w.Name(), w.Attack(), w.Description())
		}
	}
}

func TestTracedScenariosKeepMatrixDigest(t *testing.T) {
	scenarios, err := campaign.ParseScenarios("benign-baseline,scenario-a-injection")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(s []campaign.Scenario) campaign.MatrixSpec {
		return campaign.MatrixSpec{Scenarios: s, Trials: 2, Seed: 3, ImpactSamples: 1, Workers: 2, Obs: obs.NewRegistry()}
	}
	plain, err := campaign.RunMatrix(context.Background(), spec(scenarios))
	if err != nil {
		t.Fatal(err)
	}
	l := newLayers(sampledSpans...)
	impact := &impactClock{}
	traced, err := campaign.RunMatrix(context.Background(), spec(traceScenarios(scenarios, l, impact)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest() != traced.Digest() {
		t.Errorf("wrapping changed the matrix digest: %s vs %s", traced.Digest(), plain.Digest())
	}
	// 2 scenarios × 3 thresholds × 2 trials, plus one impact sample each.
	if n := len(l.dur["campaign.trial"]); n != 14 {
		t.Errorf("%d trial traces, want 14", n)
	}
	if impact.start.IsZero() {
		t.Error("the impact phase was not seen")
	}
	if err := l.reconcile(); err != nil {
		t.Error(err)
	}
}

func TestRecomposedTable3MatchesRunContext(t *testing.T) {
	w, err := setupTable3(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	t3 := w.(*table3)
	t3.cfg.FramesPerChannel = 3
	l := newLayers(sampledSpans...)
	for _, model := range table3Models {
		for _, side := range table3Sides {
			cfg := t3.cfg
			cfg.Obs = obs.NewRegistry()
			want, err := experiment.RunContext(context.Background(), cfg, model, side)
			if err != nil {
				t.Fatal(err)
			}
			got, err := t3.traced(context.Background(), obs.NewRegistry(), model, side, l)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s/%s: recomposed %v, RunContext %v", model.Name, side, got.Rows, want.Rows)
			}
		}
	}
	if n := len(l.dur["experiment.trial"]); n != 4*16*3 {
		t.Errorf("%d trial traces, want %d", n, 4*16*3)
	}
	if err := l.reconcile(); err != nil {
		t.Error(err)
	}
}

// TestShortRunEmitsEveryMetric runs each workload for its minimum
// number of rounds at its pinned seed, untraced and traced.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few rounds")
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			h := currentHost(def)
			rc := runConfig{
				seed: def.defaultSeed, seconds: time.Millisecond, trace: traced, host: h,
				probe: func() (time.Duration, error) {
					start := time.Now()
					_, err := def.setup(def.defaultSeed, h.Workers)
					return time.Since(start), err
				},
			}
			res, err := measure(context.Background(), def, rc, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: %s = %+v, want unit %s", def.name, traced, d.name, m, d.unit)
				}
			}
			if !traced && res.Metrics["ops_per_cpu_s"].Value <= 0 {
				t.Errorf("%s: ops_per_cpu_s %g", def.name, res.Metrics["ops_per_cpu_s"].Value)
			}
		}
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better, Why string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []entry
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the catalogue %d", len(c.json), len(c.code))
			continue
		}
		for i, e := range c.json {
			d := c.code[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, catalogue %+v", i, e, d)
			}
		}
	}
}

func TestCompareRefusesMismatchedHosts(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, h host, rate float64) string {
		hl, _ := json.Marshal(h)
		rl, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"ops_per_cpu_s": {rate, "1/s"}}})
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(fmt.Sprintf("host %s\nsome table line\n%s\n", hl, rl)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	two := host{GOMAXPROCS: 2, Workers: 2}
	a := save("a", two, 100)
	b := save("b", host{GOMAXPROCS: 1, Workers: 1}, 120)
	if err := compare([]string{a, b}, io.Discard); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("runs at different GOMAXPROCS compared: %v", err)
	}
	c := save("c", two, 120)
	var out strings.Builder
	if err := compare([]string{a, c}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+20.0%") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
