package runner

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"wazabee/internal/obs"
)

// Metric families published by the engine. Every series carries a "spec"
// label with the run's name, so concurrent runs on one registry stay
// distinguishable.
const (
	// TrialsMetric counts trial executions, including trials whose shard
	// was later discarded by the stopping rule or lost to cancellation.
	TrialsMetric = "wazabee_runner_trials_total"
	// ShardsMetric counts shard dispositions by state: completed (executed
	// to the end this run), restored (taken from a checkpoint), skipped
	// (never executed — the point stopped or the run ended first). At the
	// end of any run completed+restored+skipped equals the shard total.
	ShardsMetric = "wazabee_runner_shards_total"
	// DiscardedMetric counts completed or restored shards excluded from
	// the final tally because their point's stopping rule had already
	// frozen a shorter prefix.
	DiscardedMetric = "wazabee_runner_shards_discarded_total"
	// ProgressMetric is the counted-trials fraction (0..1) of the trials
	// still scheduled to run.
	ProgressMetric = "wazabee_runner_progress"
	// ETAMetric extrapolates the remaining wall-clock seconds from the
	// progress fraction and the elapsed time.
	ETAMetric = "wazabee_runner_eta_seconds"
	// WorkersMetric is the size of the run's worker pool.
	WorkersMetric = "wazabee_runner_workers"
)

// DefaultShardSize is the number of trials a shard bundles when the spec
// does not say otherwise: small enough that checkpoints and the stopping
// rule get frequent boundaries, large enough that scheduling overhead
// stays negligible against a multi-millisecond trial.
const DefaultShardSize = 16

// Point is one operating point of a Monte-Carlo experiment (a channel, an
// SNR, an emulator). Key must be unique within a spec: it seeds every one
// of the point's trials and names the point in checkpoints.
type Point struct {
	Key    string
	Trials int
}

// Outcome is the result of one trial: a classification (tallied into rate
// estimates with Wilson intervals) and an optional scalar (averaged into
// the point's Mean — pivotability scores, for instance).
type Outcome struct {
	Class string
	Value float64
}

// Trial executes one Monte-Carlo trial. All of the trial's randomness
// must derive from seed (already mixed from the run seed, the point key
// and the trial index via TrialSeed), and nothing else — that contract is
// what makes results independent of scheduling. The engine checks ctx
// between trials; long trials may additionally honour it themselves.
type Trial func(ctx context.Context, seed int64, point Point, trial int) (Outcome, error)

// Stop is the optional adaptive stopping rule: a point stops once the 95%
// Wilson half-width of Class's rate, evaluated over the canonical prefix
// of completed shards, drops to HalfWidth or below (after at least
// MinTrials trials). Because the rule only ever looks at canonical
// prefixes, stopping decisions — and therefore results — stay identical
// at any worker count.
type Stop struct {
	Class     string
	HalfWidth float64
	MinTrials int
}

// Spec parameterises a run.
type Spec struct {
	// Name labels the run's metrics and checkpoint.
	Name string
	// Seed is the root of every trial's derived RNG stream.
	Seed int64
	// Points lists the operating points; keys must be unique.
	Points []Point
	// Workers bounds the worker pool; 0 means runtime.GOMAXPROCS(0) and
	// a negative count is rejected.
	Workers int
	// ShardSize is the number of consecutive trials one work item bundles;
	// <= 0 means DefaultShardSize. The shard is the unit of scheduling,
	// checkpointing and stop-rule evaluation.
	ShardSize int
	// Classes, when non-empty, is the full outcome class set: tallies are
	// reported for every class (zero or not) and a trial returning an
	// unlisted class aborts the run as a programming error.
	Classes []string
	// Checkpoint, when non-empty, is the resume file path: completed
	// shards are persisted there and a compatible existing file seeds the
	// run. The file is removed when the run completes.
	Checkpoint string
	// Obs receives the run's telemetry; nil falls back to the process
	// default registry.
	Obs *obs.Registry
	// Stop, when non-nil, enables adaptive stopping; its HalfWidth must
	// be finite and positive.
	Stop *Stop
}

func (s *Spec) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Spec) shardSize() int {
	if s.ShardSize > 0 {
		return s.ShardSize
	}
	return DefaultShardSize
}

func (s *Spec) label() string {
	if s.Name != "" {
		return s.Name
	}
	return "run"
}

// Estimate is one class's rate over a point's counted trials, with its
// 95% Wilson score interval.
type Estimate struct {
	Class  string
	Count  int
	Trials int
	Rate   float64
	Lo, Hi float64
}

// PointResult is the aggregated outcome of one point.
type PointResult struct {
	Point Point
	// Trials is the number counted into the tallies — Point.Trials unless
	// the stopping rule froze an earlier prefix.
	Trials int
	// Counts tallies trials by class.
	Counts map[string]int
	// Mean averages Outcome.Value over the counted trials, reduced in
	// canonical trial order so it is bit-reproducible.
	Mean float64
	// Estimates carries one rate-with-interval per class, in the spec's
	// class order (or sorted observed classes when the spec names none).
	Estimates []Estimate
}

// Estimate returns the named class's estimate and false when absent.
func (p *PointResult) Estimate(class string) (Estimate, bool) {
	for _, e := range p.Estimates {
		if e.Class == class {
			return e, true
		}
	}
	return Estimate{}, false
}

// Result is a completed run: one PointResult per spec point, in spec
// order. It contains no timing, so byte-comparing two Results is a valid
// determinism check.
type Result struct {
	Name   string
	Seed   int64
	Trials int
	Points []PointResult
}

// shardRef locates one shard in the global canonical order.
type shardRef struct {
	point      int // index into Spec.Points
	index      int // shard index within the point
	start, end int
}

// shardResult is one executed (or restored) shard's local tally.
type shardResult struct {
	counts map[string]int
	sum    float64
}

// pointState is the collector's view of one point.
type pointState struct {
	point      Point
	done       []*shardResult // by shard index; nil until finished
	prefix     int            // consecutive done shards counted so far
	stopped    bool
	stopShards int // prefix frozen by the stopping rule
}

// shard disposition states (per global shard).
const (
	shardPending = iota
	shardCompleted
	shardRestored
	shardSkipped
)

// run is the mutable engine state shared by the workers under mu.
type run struct {
	spec  *Spec
	trial Trial

	mu       sync.Mutex
	points   []*pointState
	shards   []shardRef
	state    []uint8 // disposition per shard, indexed like shards
	next     int     // dispatch cursor
	firstErr error
	cancel   context.CancelFunc

	countedTrials   int
	scheduledTrials int
	started         time.Time

	classSet map[string]bool

	trialsC, completedC, restoredC, skippedC, discardedC *obs.Counter
	progressG, etaG                                      *obs.Gauge
}

// Run executes the spec's Monte-Carlo trials on a bounded worker pool and
// returns the aggregated result. On cancellation (or a trial error) it
// persists a checkpoint of the completed shards — when the spec names a
// checkpoint path — and returns the causing error; rerunning the same
// spec resumes from that file and finishes with a Result bit-identical to
// an uninterrupted run's. An invalid spec, such as a negative worker
// count or a NaN stopping half-width, fails before any trial runs.
func Run(ctx context.Context, spec Spec, trial Trial) (*Result, error) {
	if trial == nil {
		return nil, fmt.Errorf("runner: nil trial function")
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("runner: negative worker count %d (0 means GOMAXPROCS)", spec.Workers)
	}
	if len(spec.Points) == 0 {
		return nil, fmt.Errorf("runner: no points")
	}
	seen := make(map[string]bool, len(spec.Points))
	for _, p := range spec.Points {
		if p.Key == "" {
			return nil, fmt.Errorf("runner: point with empty key")
		}
		if seen[p.Key] {
			return nil, fmt.Errorf("runner: duplicate point key %q", p.Key)
		}
		seen[p.Key] = true
		if p.Trials < 1 {
			return nil, fmt.Errorf("runner: point %q has %d trials", p.Key, p.Trials)
		}
	}
	if spec.Stop != nil {
		if spec.Stop.Class == "" {
			return nil, fmt.Errorf("runner: stopping rule names no class")
		}
		if hw := spec.Stop.HalfWidth; !(hw > 0) || math.IsInf(hw, 1) {
			return nil, fmt.Errorf("runner: stopping half-width %g, want a finite value > 0", hw)
		}
	}

	r := &run{spec: &spec, trial: trial, started: time.Now()}
	if len(spec.Classes) > 0 {
		r.classSet = make(map[string]bool, len(spec.Classes))
		for _, c := range spec.Classes {
			if r.classSet[c] {
				return nil, fmt.Errorf("runner: duplicate class %q", c)
			}
			r.classSet[c] = true
		}
		if spec.Stop != nil && !r.classSet[spec.Stop.Class] {
			return nil, fmt.Errorf("runner: stopping class %q not in class set", spec.Stop.Class)
		}
	}

	reg := obs.Or(spec.Obs)
	label := spec.label()
	r.trialsC = reg.Counter(TrialsMetric, "spec", label)
	r.completedC = reg.Counter(ShardsMetric, "spec", label, "state", "completed")
	r.restoredC = reg.Counter(ShardsMetric, "spec", label, "state", "restored")
	r.skippedC = reg.Counter(ShardsMetric, "spec", label, "state", "skipped")
	r.discardedC = reg.Counter(DiscardedMetric, "spec", label)
	r.progressG = reg.Gauge(ProgressMetric, "spec", label)
	r.etaG = reg.Gauge(ETAMetric, "spec", label)
	reg.Gauge(WorkersMetric, "spec", label).Set(float64(spec.workers()))

	size := spec.shardSize()
	r.points = make([]*pointState, len(spec.Points))
	for i, p := range spec.Points {
		n := (p.Trials + size - 1) / size
		r.points[i] = &pointState{point: p, done: make([]*shardResult, n)}
		for idx, start := 0, 0; start < p.Trials; idx, start = idx+1, start+size {
			end := start + size
			if end > p.Trials {
				end = p.Trials
			}
			r.shards = append(r.shards, shardRef{point: i, index: idx, start: start, end: end})
		}
		r.scheduledTrials += p.Trials
	}
	r.state = make([]uint8, len(r.shards))

	if spec.Checkpoint != "" {
		cp, err := loadCheckpoint(spec.Checkpoint, &spec)
		if err != nil {
			return nil, err
		}
		if cp != nil {
			if err := r.restore(cp); err != nil {
				return nil, err
			}
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.cancel = cancel

	var wg sync.WaitGroup
	for w := 0; w < spec.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(ctx)
		}()
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	// Shards never dispatched (or abandoned mid-shard) end as skipped, so
	// the dispositions always account for every shard exactly once.
	leftover := 0
	for i := range r.state {
		if r.state[i] == shardPending {
			r.state[i] = shardSkipped
			leftover++
		}
	}
	r.skippedC.Add(uint64(leftover))

	if r.firstErr != nil {
		r.checkpointLocked()
		return nil, r.firstErr
	}
	if err := ctx.Err(); err != nil {
		r.checkpointLocked()
		done := 0
		for _, st := range r.points {
			for _, sr := range st.done {
				if sr != nil {
					done++
				}
			}
		}
		return nil, fmt.Errorf("runner: run interrupted with %d/%d shards complete (checkpoint %s): %w",
			done, len(r.shards), orNone(spec.Checkpoint), err)
	}

	if spec.Checkpoint != "" {
		if err := os.Remove(spec.Checkpoint); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("runner: remove finished checkpoint: %w", err)
		}
	}
	r.progressG.Set(1)
	r.etaG.Set(0)
	return r.reduce(), nil
}

func orNone(path string) string {
	if path == "" {
		return "none"
	}
	return path
}

// restore seeds the run state from a validated checkpoint. Unknown shard
// ranges or classes mean the file was produced by an incompatible build
// and are rejected rather than silently dropped.
func (r *run) restore(cp *Checkpoint) error {
	byKey := make(map[string]int, len(r.shards))
	for i, sh := range r.shards {
		byKey[fmt.Sprintf("%s\x00%d", r.spec.Points[sh.point].Key, sh.start)] = i
	}
	restored := 0
	for _, rec := range cp.Shards {
		i, ok := byKey[fmt.Sprintf("%s\x00%d", rec.Point, rec.Start)]
		if !ok {
			return fmt.Errorf("runner: checkpoint shard %s[%d:%d) does not exist in this spec", rec.Point, rec.Start, rec.End)
		}
		sh := r.shards[i]
		if sh.end != rec.End {
			return fmt.Errorf("runner: checkpoint shard %s[%d:%d) does not match spec shard [%d:%d)", rec.Point, rec.Start, rec.End, sh.start, sh.end)
		}
		counts := make(map[string]int, len(rec.Counts))
		for class, n := range rec.Counts {
			if r.classSet != nil && !r.classSet[class] {
				return fmt.Errorf("runner: checkpoint shard %s[%d:%d) counts unknown class %q", rec.Point, rec.Start, rec.End, class)
			}
			counts[class] = n
		}
		r.points[sh.point].done[sh.index] = &shardResult{counts: counts, sum: rec.Sum}
		r.state[i] = shardRestored
		restored++
	}
	r.restoredC.Add(uint64(restored))
	for _, st := range r.points {
		r.advanceLocked(st)
	}
	r.updateProgressLocked()
	return nil
}

// work is one worker's dispatch loop: pop the next runnable shard (past
// restored ones, marking shards of stopped points skipped) and execute it.
func (r *run) work(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		r.mu.Lock()
		i, found := -1, false
		var sh shardRef
		for r.next < len(r.shards) {
			i = r.next
			r.next++
			sh = r.shards[i]
			st := r.points[sh.point]
			if st.done[sh.index] != nil { // restored from checkpoint
				continue
			}
			if st.stopped {
				r.state[i] = shardSkipped
				r.skippedC.Inc()
				continue
			}
			found = true
			break
		}
		r.mu.Unlock()
		if !found {
			return
		}
		r.execute(ctx, i, sh)
	}
}

// execute runs one shard's trials and records the result.
func (r *run) execute(ctx context.Context, i int, sh shardRef) {
	point := r.spec.Points[sh.point]
	counts := make(map[string]int, 4)
	sum := 0.0
	for t := sh.start; t < sh.end; t++ {
		if ctx.Err() != nil {
			return // abandoned mid-shard; accounted as skipped at the end
		}
		out, err := r.trial(ctx, TrialSeed(r.spec.Seed, point.Key, t), point, t)
		if err != nil {
			r.fail(fmt.Errorf("runner: point %q trial %d: %w", point.Key, t, err))
			return
		}
		if r.classSet != nil && !r.classSet[out.Class] {
			r.fail(fmt.Errorf("runner: point %q trial %d returned class %q, not in %v", point.Key, t, out.Class, r.spec.Classes))
			return
		}
		counts[out.Class]++
		sum += out.Value
		r.trialsC.Inc()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.points[sh.point]
	st.done[sh.index] = &shardResult{counts: counts, sum: sum}
	r.state[i] = shardCompleted
	r.completedC.Inc()
	if st.stopped {
		// The stopping rule froze this point while the shard was in
		// flight; the work is preserved (and checkpointed) but excluded
		// from the tally.
		r.discardedC.Inc()
	} else {
		r.advanceLocked(st)
		r.updateProgressLocked()
	}
	r.checkpointLocked()
}

// fail records the run's first error and cancels the siblings.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
	r.cancel()
}

// advanceLocked extends a point's counted prefix over consecutively
// finished shards, evaluating the stopping rule at every new boundary.
// Only prefix boundaries ever feed the rule, so the decision sequence is
// a pure function of the trial outcomes, not of scheduling.
func (r *run) advanceLocked(st *pointState) {
	size := r.spec.shardSize()
	for st.prefix < len(st.done) && st.done[st.prefix] != nil && !st.stopped {
		st.prefix++
		counted := st.prefix * size
		if counted > st.point.Trials {
			counted = st.point.Trials
		}
		r.countedTrials += shardTrials(st, st.prefix-1, size)
		if stop := r.spec.Stop; stop != nil && counted >= stop.MinTrials {
			n := 0
			for _, sr := range st.done[:st.prefix] {
				n += sr.counts[stop.Class]
			}
			if WilsonHalfWidth(n, counted) <= stop.HalfWidth {
				st.stopped = true
				st.stopShards = st.prefix
				for j := st.prefix; j < len(st.done); j++ {
					if st.done[j] != nil {
						r.discardedC.Inc()
					}
					r.scheduledTrials -= shardTrials(st, j, size)
				}
			}
		}
	}
}

// shardTrials is the size of a point's idx-th shard (the last one may be
// short).
func shardTrials(st *pointState, idx, size int) int {
	start := idx * size
	end := start + size
	if end > st.point.Trials {
		end = st.point.Trials
	}
	return end - start
}

// updateProgressLocked refreshes the progress and ETA gauges.
func (r *run) updateProgressLocked() {
	if r.scheduledTrials <= 0 {
		return
	}
	p := float64(r.countedTrials) / float64(r.scheduledTrials)
	r.progressG.Set(p)
	if p > 0 {
		r.etaG.Set(time.Since(r.started).Seconds() * (1 - p) / p)
	}
}

// checkpointLocked persists every finished shard. A write failure is a
// run failure — losing resume state silently would defeat the point.
func (r *run) checkpointLocked() {
	if r.spec.Checkpoint == "" {
		return
	}
	var records []ShardRecord
	size := r.spec.shardSize()
	for _, st := range r.points {
		for idx, sr := range st.done {
			if sr == nil {
				continue
			}
			start := idx * size
			records = append(records, ShardRecord{
				Point:  st.point.Key,
				Start:  start,
				End:    start + shardTrials(st, idx, size),
				Counts: sr.counts,
				Sum:    sr.sum,
			})
		}
	}
	if err := saveCheckpoint(r.spec.Checkpoint, r.spec, records); err != nil && r.firstErr == nil {
		r.firstErr = err
		r.cancel()
	}
}

// reduce folds the counted shards into the final Result in canonical
// (point, shard) order.
func (r *run) reduce() *Result {
	size := r.spec.shardSize()
	res := &Result{Name: r.spec.Name, Seed: r.spec.Seed, Points: make([]PointResult, len(r.points))}
	for i, st := range r.points {
		counted := len(st.done)
		if st.stopped {
			counted = st.stopShards
		}
		counts := make(map[string]int)
		sum := 0.0
		trials := 0
		for idx := 0; idx < counted; idx++ {
			sr := st.done[idx]
			for class, n := range sr.counts {
				counts[class] += n
			}
			sum += sr.sum
			trials += shardTrials(st, idx, size)
		}
		classes := r.spec.Classes
		if len(classes) == 0 {
			for class := range counts {
				classes = append(classes, class)
			}
			sort.Strings(classes)
		}
		pr := PointResult{Point: st.point, Trials: trials, Counts: counts}
		if trials > 0 {
			pr.Mean = sum / float64(trials)
		}
		for _, class := range classes {
			n := counts[class]
			lo, hi := Wilson(n, trials)
			rate := 0.0
			if trials > 0 {
				rate = float64(n) / float64(trials)
			}
			pr.Estimates = append(pr.Estimates, Estimate{
				Class: class, Count: n, Trials: trials,
				Rate: rate, Lo: lo, Hi: hi,
			})
			if _, ok := counts[class]; !ok {
				counts[class] = 0
			}
		}
		res.Points[i] = pr
		res.Trials += trials
	}
	return res
}
