package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"wazabee/internal/obs"
)

// coinTrial is a synthetic Monte-Carlo trial: a biased coin whose flip is
// a pure function of the derived seed, mirroring how the real experiments
// seed their media.
func coinTrial(bias float64) Trial {
	return func(_ context.Context, seed int64, _ Point, _ int) (Outcome, error) {
		v := rand.New(rand.NewSource(seed)).Float64()
		class := "bad"
		if v < bias {
			class = "ok"
		}
		return Outcome{Class: class, Value: v}, nil
	}
}

func testSpec(workers int) Spec {
	return Spec{
		Name: "test",
		Seed: 42,
		Points: []Point{
			{Key: "p0", Trials: 37},
			{Key: "p1", Trials: 64},
			{Key: "p2", Trials: 5},
		},
		Workers:   workers,
		ShardSize: 8,
		Classes:   []string{"ok", "bad"},
		Obs:       obs.NewRegistry(),
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministicAcrossWorkers is the engine's core guarantee: the
// Result is byte-identical at any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 3, 8} {
		res, err := Run(context.Background(), testSpec(workers), coinTrial(0.7))
		if err != nil {
			t.Fatal(err)
		}
		data := mustJSON(t, res)
		if ref == nil {
			ref = data
			continue
		}
		if string(data) != string(ref) {
			t.Errorf("workers=%d result differs:\n%s\nvs\n%s", workers, data, ref)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, testSpec(1), nil); err == nil {
		t.Error("nil trial accepted")
	}
	spec := testSpec(1)
	spec.Points = nil
	if _, err := Run(ctx, spec, coinTrial(1)); err == nil {
		t.Error("empty point list accepted")
	}
	spec = testSpec(1)
	spec.Points[1].Key = "p0"
	if _, err := Run(ctx, spec, coinTrial(1)); err == nil {
		t.Error("duplicate point key accepted")
	}
	spec = testSpec(1)
	spec.Points[0].Trials = 0
	if _, err := Run(ctx, spec, coinTrial(1)); err == nil {
		t.Error("zero-trial point accepted")
	}
	spec = testSpec(1)
	spec.Stop = &Stop{Class: "", HalfWidth: 0.1}
	if _, err := Run(ctx, spec, coinTrial(1)); err == nil {
		t.Error("stopping rule without class accepted")
	}
	spec = testSpec(1)
	spec.Stop = &Stop{Class: "nope", HalfWidth: 0.1}
	if _, err := Run(ctx, spec, coinTrial(1)); err == nil {
		t.Error("stopping class outside the class set accepted")
	}
}

// TestRunRejectsBadSettings checks the worker count and CI half-width
// every Monte-Carlo command passes through: an invalid one fails before
// any trial runs.
func TestRunRejectsBadSettings(t *testing.T) {
	ran := false
	trial := func(context.Context, int64, Point, int) (Outcome, error) {
		ran = true
		return Outcome{Class: "ok"}, nil
	}
	for _, tc := range []struct {
		name      string
		workers   int
		halfWidth float64
	}{
		{"negative workers", -3, 0.1},
		{"NaN half-width", 1, math.NaN()},
		{"+Inf half-width", 1, math.Inf(1)},
		{"-Inf half-width", 1, math.Inf(-1)},
		{"negative half-width", 1, -1},
		{"zero half-width", 1, 0},
	} {
		spec := testSpec(1)
		spec.Workers = tc.workers
		spec.Stop = &Stop{Class: "ok", HalfWidth: tc.halfWidth}
		if _, err := Run(context.Background(), spec, trial); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if ran {
		t.Error("a trial ran under an invalid spec")
	}
}

func TestRunTrialErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	trial := func(_ context.Context, _ int64, p Point, i int) (Outcome, error) {
		if p.Key == "p1" && i == 9 {
			return Outcome{}, boom
		}
		return Outcome{Class: "ok"}, nil
	}
	_, err := Run(context.Background(), testSpec(4), trial)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunUnknownClassAborts(t *testing.T) {
	trial := func(_ context.Context, _ int64, _ Point, _ int) (Outcome, error) {
		return Outcome{Class: "mystery"}, nil
	}
	if _, err := Run(context.Background(), testSpec(2), trial); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestRunEstimates checks the tallies, the attached Wilson intervals and
// the canonical-order mean.
func TestRunEstimates(t *testing.T) {
	spec := Spec{
		Name:      "est",
		Seed:      1,
		Points:    []Point{{Key: "p", Trials: 20}},
		Workers:   4,
		ShardSize: 4,
		Classes:   []string{"even", "odd", "never"},
		Obs:       obs.NewRegistry(),
	}
	trial := func(_ context.Context, _ int64, _ Point, i int) (Outcome, error) {
		class := "even"
		if i%2 == 1 {
			class = "odd"
		}
		return Outcome{Class: class, Value: float64(i)}, nil
	}
	res, err := Run(context.Background(), spec, trial)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Trials != 20 || res.Trials != 20 {
		t.Fatalf("trials = %d/%d, want 20", p.Trials, res.Trials)
	}
	if p.Counts["even"] != 10 || p.Counts["odd"] != 10 || p.Counts["never"] != 0 {
		t.Fatalf("counts = %v", p.Counts)
	}
	if want := 9.5; p.Mean != want { // mean of 0..19
		t.Errorf("mean = %g, want %g", p.Mean, want)
	}
	if len(p.Estimates) != 3 {
		t.Fatalf("estimates = %d, want one per class", len(p.Estimates))
	}
	est, ok := p.Estimate("even")
	if !ok {
		t.Fatal("no estimate for class even")
	}
	lo, hi := Wilson(10, 20)
	if est.Rate != 0.5 || est.Lo != lo || est.Hi != hi {
		t.Errorf("estimate = %+v, want rate 0.5 interval [%g, %g]", est, lo, hi)
	}
	if never, _ := p.Estimate("never"); never.Count != 0 || never.Rate != 0 {
		t.Errorf("zero-count class estimate = %+v", never)
	}
}

// TestRunCancellationAndResume covers the checkpoint lifecycle: a run
// cancelled mid-sweep leaves a partial checkpoint, and resuming from it
// finishes with exactly the result of an uninterrupted run.
func TestRunCancellationAndResume(t *testing.T) {
	ref, err := Run(context.Background(), testSpec(2), coinTrial(0.6))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "resume.json")
	spec := testSpec(2)
	spec.ShardSize = 1 // every executed trial lands in the checkpoint
	spec.Checkpoint = path

	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	cancelling := func(c context.Context, seed int64, p Point, i int) (Outcome, error) {
		if executed.Add(1) == 7 {
			cancel()
		}
		return coinTrial(0.6)(c, seed, p, i)
	}
	_, err = Run(ctx, spec, cancelling)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("no checkpoint after cancellation: %v", rerr)
	}
	cp, derr := DecodeCheckpoint(data)
	if derr != nil {
		t.Fatal(derr)
	}
	total := 37 + 64 + 5
	if len(cp.Shards) == 0 || len(cp.Shards) >= total {
		t.Fatalf("checkpoint has %d shards, want a partial run (0 < n < %d)", len(cp.Shards), total)
	}

	// Resume with the same spec: the restored shards plus the fresh ones
	// must reduce to the uninterrupted result.
	res, err := Run(context.Background(), spec, coinTrial(0.6))
	if err != nil {
		t.Fatal(err)
	}
	// The reference ran with the default shard size; rerun it at the
	// resumed spec's shard size for an apples-to-apples comparison.
	fine := testSpec(2)
	fine.ShardSize = 1
	refShard, err := Run(context.Background(), fine, coinTrial(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, res)) != string(mustJSON(t, refShard)) {
		t.Error("resumed result differs from uninterrupted run")
	}
	// Counts must also agree with the coarse-sharded reference.
	for i := range ref.Points {
		if !reflect.DeepEqual(ref.Points[i].Counts, res.Points[i].Counts) {
			t.Errorf("point %d counts differ across shard sizes: %v vs %v", i, ref.Points[i].Counts, res.Points[i].Counts)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("checkpoint not removed after a completed run")
	}
}

// TestRunAdaptiveStop checks the run-until-CI rule: an overwhelmingly
// one-sided coin reaches the half-width target long before the trial
// budget, at any worker count, with identical results.
func TestRunAdaptiveStop(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 8} {
		spec := Spec{
			Name:      "stop",
			Seed:      9,
			Points:    []Point{{Key: "sure", Trials: 4096}},
			Workers:   workers,
			ShardSize: 16,
			Classes:   []string{"ok", "bad"},
			Obs:       obs.NewRegistry(),
			Stop:      &Stop{Class: "ok", HalfWidth: 0.05, MinTrials: 32},
		}
		res, err := Run(context.Background(), spec, coinTrial(2)) // always ok
		if err != nil {
			t.Fatal(err)
		}
		p := res.Points[0]
		if p.Trials >= 4096 {
			t.Fatalf("workers=%d: adaptive stop never triggered (%d trials)", workers, p.Trials)
		}
		if p.Trials < 32 {
			t.Fatalf("workers=%d: stopped before MinTrials (%d)", workers, p.Trials)
		}
		est, _ := p.Estimate("ok")
		if est.Rate != 1 {
			t.Fatalf("workers=%d: rate = %g, want 1", workers, est.Rate)
		}
		if hw := (est.Hi - est.Lo) / 2; hw > 0.05 {
			t.Errorf("workers=%d: stopped with half-width %g > target", workers, hw)
		}
		data := mustJSON(t, res)
		if ref == nil {
			ref = data
		} else if string(data) != string(ref) {
			t.Errorf("adaptive-stop result differs between worker counts")
		}
	}
}

// TestRunMetricsAccounting checks the progress gauges and the exact shard
// disposition accounting on a clean run.
func TestRunMetricsAccounting(t *testing.T) {
	spec := testSpec(3)
	reg := spec.Obs
	if _, err := Run(context.Background(), spec, coinTrial(0.5)); err != nil {
		t.Fatal(err)
	}
	totalTrials := uint64(37 + 64 + 5)
	totalShards := uint64(5 + 8 + 1) // ceil(37/8) + ceil(64/8) + ceil(5/8)
	if got := reg.Counter(TrialsMetric, "spec", "test").Value(); got != totalTrials {
		t.Errorf("trials counter = %d, want %d", got, totalTrials)
	}
	completed := reg.Counter(ShardsMetric, "spec", "test", "state", "completed").Value()
	restored := reg.Counter(ShardsMetric, "spec", "test", "state", "restored").Value()
	skipped := reg.Counter(ShardsMetric, "spec", "test", "state", "skipped").Value()
	if completed != totalShards || restored != 0 || skipped != 0 {
		t.Errorf("shard accounting = completed %d restored %d skipped %d, want %d/0/0",
			completed, restored, skipped, totalShards)
	}
	if got := reg.Counter(DiscardedMetric, "spec", "test").Value(); got != 0 {
		t.Errorf("discarded = %d, want 0", got)
	}
	if p := reg.Gauge(ProgressMetric, "spec", "test").Value(); p != 1 {
		t.Errorf("final progress = %g, want 1", p)
	}
	if eta := reg.Gauge(ETAMetric, "spec", "test").Value(); eta != 0 {
		t.Errorf("final ETA = %g, want 0", eta)
	}
	if w := reg.Gauge(WorkersMetric, "spec", "test").Value(); w != 3 {
		t.Errorf("workers gauge = %g, want 3", w)
	}
}

// TestRunCheckpointFingerprintMismatch: a checkpoint from a different
// seed must be refused, not silently merged.
func TestRunCheckpointFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	spec := testSpec(1)
	spec.ShardSize = 1
	spec.Checkpoint = path

	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	trial := func(c context.Context, seed int64, p Point, i int) (Outcome, error) {
		if executed.Add(1) == 3 {
			cancel()
		}
		return coinTrial(0.5)(c, seed, p, i)
	}
	if _, err := Run(ctx, spec, trial); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup run: %v", err)
	}

	other := spec
	other.Seed = 43
	_, err := Run(context.Background(), other, coinTrial(0.5))
	if err == nil {
		t.Fatal("checkpoint from a different seed accepted")
	}
	if msg := err.Error(); !containsAll(msg, "different run") {
		t.Errorf("unhelpful mismatch error: %v", err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestRunShuffledPointOrder: reordering the spec's points must not change
// any point's individual result (the persweep ordering hazard, abstracted).
func TestRunShuffledPointOrder(t *testing.T) {
	fwd, err := Run(context.Background(), testSpec(2), coinTrial(0.6))
	if err != nil {
		t.Fatal(err)
	}
	rev := testSpec(2)
	for i, j := 0, len(rev.Points)-1; i < j; i, j = i+1, j-1 {
		rev.Points[i], rev.Points[j] = rev.Points[j], rev.Points[i]
	}
	back, err := Run(context.Background(), rev, coinTrial(0.6))
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fwd.Points {
		var match *PointResult
		for i := range back.Points {
			if back.Points[i].Point.Key == fp.Point.Key {
				match = &back.Points[i]
				break
			}
		}
		if match == nil {
			t.Fatalf("point %q missing from reversed run", fp.Point.Key)
		}
		if string(mustJSON(t, fp)) != string(mustJSON(t, *match)) {
			t.Errorf("point %q differs when the point order is reversed", fp.Point.Key)
		}
	}
}

// TestRunAlreadyCancelled: a dead context produces no work, an error, and
// (with a checkpoint path) an empty-but-valid checkpoint file.
func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := testSpec(2)
	spec.Checkpoint = filepath.Join(t.TempDir(), "dead.json")
	_, err := Run(ctx, spec, coinTrial(0.5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	data, rerr := os.ReadFile(spec.Checkpoint)
	if rerr != nil {
		t.Fatalf("no checkpoint written: %v", rerr)
	}
	cp, derr := DecodeCheckpoint(data)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(cp.Shards) != 0 {
		t.Errorf("cancelled-before-start checkpoint has %d shards", len(cp.Shards))
	}
}

func ExampleRun() {
	spec := Spec{
		Name:    "example",
		Seed:    1,
		Points:  []Point{{Key: "p", Trials: 100}},
		Workers: 4,
		Classes: []string{"ok", "bad"},
		Obs:     obs.NewRegistry(),
	}
	trial := func(_ context.Context, seed int64, _ Point, _ int) (Outcome, error) {
		if rand.New(rand.NewSource(seed)).Float64() < 0.9 {
			return Outcome{Class: "ok"}, nil
		}
		return Outcome{Class: "bad"}, nil
	}
	res, _ := Run(context.Background(), spec, trial)
	est, _ := res.Points[0].Estimate("ok")
	fmt.Printf("ok rate %.2f, 95%% CI [%.2f, %.2f]\n", est.Rate, est.Lo, est.Hi)
	// Output: ok rate 0.91, 95% CI [0.84, 0.95]
}
