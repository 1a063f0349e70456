package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair qualifying a metric series.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative semantics; negative deltas are the
// caller's bug and are ignored).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one registered metric time series.
type series struct {
	name   string
	labels []Label
	kind   string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds a process's (or one experiment run's) metric series.
// All methods are safe for concurrent use. Series are created lazily on
// first access and identified by name plus the full label set.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	order  []string // registration order, for stable human-friendly dumps
	help   map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// SetHelp attaches a help string to a metric family, emitted as the
// # HELP line of the Prometheus encoding.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// appendSeriesKey appends the canonical map key of a series: the name,
// then each label's name and value, all NUL-separated.
func appendSeriesKey(dst []byte, name string, labels []Label) []byte {
	dst = append(dst, name...)
	for _, l := range labels {
		dst = append(dst, 0)
		dst = append(dst, l.Name...)
		dst = append(dst, 0)
		dst = append(dst, l.Value...)
	}
	return dst
}

// lookup returns the series for name and the label name/value pairs kv,
// creating it with mk on first use. It guards against a name being
// reused with a different metric kind. Labels arrive as alternating
// name, value strings; an odd count is a programmer error and panics
// (like fmt verbs, it cannot be handled meaningfully at runtime).
//
// A hit allocates nothing: the labels are sorted by name in a stack
// array and the key is built in a stack buffer, and only a miss copies
// them to the heap. Run-time callers such as Stage look their series up
// on every call.
func (r *Registry) lookup(name, kind string, kv []string, mk func(*series)) *series {
	if len(kv)%2 != 0 {
		panic("obs: odd label list for metric " + name)
	}
	var labelBuf [8]Label
	labels := labelBuf[:0]
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Name: kv[i], Value: kv[i+1]})
		for j := len(labels) - 1; j > 0 && labels[j-1].Name > labels[j].Name; j-- {
			labels[j-1], labels[j] = labels[j], labels[j-1]
		}
	}
	var keyBuf [128]byte
	key := appendSeriesKey(keyBuf[:0], name, labels)

	r.mu.RLock()
	s, ok := r.series[string(key)]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		defer r.mu.Unlock()
		s, ok = r.series[string(key)]
		if !ok {
			s = &series{name: name, labels: append([]Label(nil), labels...), kind: kind}
			mk(s)
			k := string(key)
			r.series[k] = s
			r.order = append(r.order, k)
			return s
		}
	}
	if s.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, s.kind, kind))
	}
	return s
}

// Counter returns (creating if needed) the counter for name and the
// given label name/value pairs.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	s := r.lookup(name, "counter", labelPairs, func(s *series) {
		s.counter = &Counter{}
	})
	return s.counter
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	s := r.lookup(name, "gauge", labelPairs, func(s *series) {
		s.gauge = &Gauge{}
	})
	return s.gauge
}

// Histogram returns (creating if needed) the histogram for name and
// labels. The bucket bounds apply only on creation; later calls reuse
// the existing series regardless of the bounds argument, so one metric
// family keeps one bucket layout.
func (r *Registry) Histogram(name string, buckets []float64, labelPairs ...string) *Histogram {
	s := r.lookup(name, "histogram", labelPairs, func(s *series) {
		s.hist = newHistogram(buckets)
	})
	return s.hist
}

// Merge folds other's series into r: counters add, gauges take other's
// value, histograms add bucket-wise (bucket layouts must match; a
// mismatched layout is reported as an error and that series skipped).
// Experiment runs accumulate into a private registry and merge it into
// the process default when done, so partially-failed runs never leave
// half-counted series behind.
func (r *Registry) Merge(other *Registry) error {
	if other == nil || other == r {
		return nil
	}
	other.mu.RLock()
	keys := append([]string(nil), other.order...)
	src := make([]*series, 0, len(keys))
	for _, k := range keys {
		src = append(src, other.series[k])
	}
	other.mu.RUnlock()

	var firstErr error
	for _, s := range src {
		pairs := make([]string, 0, 2*len(s.labels))
		for _, l := range s.labels {
			pairs = append(pairs, l.Name, l.Value)
		}
		switch s.kind {
		case "counter":
			r.Counter(s.name, pairs...).Add(s.counter.Value())
		case "gauge":
			r.Gauge(s.name, pairs...).Set(s.gauge.Value())
		case "histogram":
			dst := r.Histogram(s.name, s.hist.bounds, pairs...)
			if err := dst.merge(s.hist); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("obs: merge %s: %w", s.name, err)
			}
		}
	}
	return firstErr
}

// sortedSeries returns all series ordered by name then label set — the
// deterministic order of both encodings.
func (r *Registry) sortedSeries() []*series {
	r.mu.RLock()
	out := make([]*series, 0, len(r.series))
	for _, key := range r.order {
		out = append(out, r.series[key])
	}
	r.mu.RUnlock()
	labelKey := func(s *series) string { return string(appendSeriesKey(nil, "", s.labels)) }
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelKey(out[i]) < labelKey(out[j])
	})
	return out
}
