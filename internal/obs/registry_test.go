package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentHammering drives counters, gauges and histograms from
// many goroutines at once; with -race this doubles as the data-race
// check the package's concurrency contract promises.
func TestConcurrentHammering(t *testing.T) {
	reg := NewRegistry()
	const (
		workers = 16
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer_total")
			labelled := reg.Counter("hammer_labelled_total", "worker", []string{"even", "odd"}[w%2])
			g := reg.Gauge("hammer_gauge")
			h := reg.Histogram("hammer_hist", LinearBuckets(0, 1, 10))
			for i := 0; i < perG; i++ {
				c.Inc()
				labelled.Add(2)
				g.Set(float64(i))
				g.Add(1)
				h.Observe(float64(i % 10))
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("hammer_total").Value(); got != workers*perG {
		t.Errorf("counter = %d, want %d", got, workers*perG)
	}
	even := reg.Counter("hammer_labelled_total", "worker", "even").Value()
	odd := reg.Counter("hammer_labelled_total", "worker", "odd").Value()
	if even+odd != 2*workers*perG {
		t.Errorf("labelled counters sum = %d, want %d", even+odd, 2*workers*perG)
	}
	if got := reg.Histogram("hammer_hist", nil).Count(); got != workers*perG {
		t.Errorf("histogram count = %d, want %d", got, workers*perG)
	}
	// Encoding while another goroutine writes must be race-free too.
	var wg2 sync.WaitGroup
	wg2.Add(2)
	go func() {
		defer wg2.Done()
		for i := 0; i < 100; i++ {
			reg.Counter("hammer_total").Inc()
			reg.Histogram("hammer_hist", nil).Observe(3)
		}
	}()
	go func() {
		defer wg2.Done()
		for i := 0; i < 20; i++ {
			_ = reg.PrometheusText()
			_ = reg.Snapshot()
		}
	}()
	wg2.Wait()
}

// TestQuantileAgainstSortedReference checks the interpolated quantile
// estimate against the exact quantile of the same sample, requiring
// agreement within one bucket width.
func TestQuantileAgainstSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	const n = 5000
	bucketWidth := 0.5
	h := newHistogram(LinearBuckets(0, bucketWidth, 41)) // covers [0,20]

	samples := make([]float64, n)
	for i := range samples {
		v := rnd.NormFloat64()*3 + 10 // mostly inside [0,20]
		if v < 0 {
			v = 0
		}
		if v > 20 {
			v = 20
		}
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)

	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		idx := int(q*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		want := samples[idx]
		if math.Abs(got-want) > bucketWidth {
			t.Errorf("Quantile(%g) = %g, exact %g (tolerance %g)", q, got, want, bucketWidth)
		}
	}

	if got := h.Quantile(0.5); got < h.Quantile(0.1) || got > h.Quantile(0.9) {
		t.Errorf("quantiles not monotone: p10=%g p50=%g p90=%g",
			h.Quantile(0.1), got, h.Quantile(0.9))
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.5)) {
		t.Error("out-of-range quantile should be NaN")
	}
	if !math.IsNaN(newHistogram(nil).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

// TestQuantileClamps checks the estimate never leaves the observed
// range, including in the +Inf overflow bucket.
func TestQuantileClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(100) // +Inf bucket
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want observed max 100", got)
	}
	if got := h.Quantile(0); got < 0.5 {
		t.Errorf("Quantile(0) = %g, below observed min 0.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := newHistogram(LinearBuckets(0, 1, 5))
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 6 || h.Mean() != 2 {
		t.Errorf("count/sum/mean = %d/%g/%g, want 3/6/2", h.Count(), h.Sum(), h.Mean())
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("frames_total", "side", "rx").Add(3)
	b.Counter("frames_total", "side", "rx").Add(4)
	b.Counter("frames_total", "side", "tx").Add(1)
	b.Gauge("snr_db").Set(12)
	a.Histogram("dist", LinearBuckets(0, 1, 4)).Observe(1)
	b.Histogram("dist", LinearBuckets(0, 1, 4)).Observe(2)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Counter("frames_total", "side", "rx").Value(); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("frames_total", "side", "tx").Value(); got != 1 {
		t.Errorf("new-series counter = %d, want 1", got)
	}
	if got := a.Gauge("snr_db").Value(); got != 12 {
		t.Errorf("merged gauge = %g, want 12", got)
	}
	if got := a.Histogram("dist", nil).Count(); got != 2 {
		t.Errorf("merged histogram count = %d, want 2", got)
	}

	// Mismatched bucket layouts are reported, not silently mangled.
	c := NewRegistry()
	c.Histogram("dist", LinearBuckets(0, 2, 2)).Observe(1)
	if err := a.Merge(c); err == nil {
		t.Error("expected bucket-layout mismatch error")
	}
	// Self- and nil-merges are no-ops.
	if err := a.Merge(a); err != nil {
		t.Errorf("self merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind collision")
		}
	}()
	reg.Gauge("x_total")
}

func TestStageHelper(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrace("frame")
	done := Stage(reg, tr, "demod")
	done()
	h := reg.Histogram(StageSecondsMetric, nil, "stage", "demod")
	if h.Count() != 1 {
		t.Fatalf("stage histogram count = %d, want 1", h.Count())
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "demod" {
		t.Fatalf("trace roots = %+v, want one demod span", roots)
	}
	// Both sinks optional.
	Stage(nil, nil, "noop")()
}

// TestRegistryHitsDoNotAllocate looks up series that already exist,
// with zero, one and three label pairs (given out of order): a hit must
// not allocate, because run-time callers such as Stage look their
// series up by name on every call.
func TestRegistryHitsDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	for _, tc := range []struct {
		name   string
		lookup func()
	}{
		{"0 pairs", func() { reg.Counter("hits_total").Inc() }},
		{"1 pair", func() { reg.Gauge("hits_depth", "stage", "demod").Set(1) }},
		{"3 pairs", func() {
			reg.Histogram("hits_seconds", DurationBuckets, "stage", "demod", "decoder", "wazabee", "channel", "14").Observe(1e-3)
		}},
	} {
		tc.lookup()
		if got := testing.AllocsPerRun(100, tc.lookup); got != 0 {
			t.Errorf("%s: a registry hit allocates %v times", tc.name, got)
		}
	}
}
