package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"wazabee/internal/obs"
)

// reconcileTolerance bounds how far the summed self times of every
// span may sit from the traced worker time: the time workers spent
// inside traced ops, read from the clock around each root span rather
// than from the spans. The honest gap is the cost of opening the trace
// and its root span, far below 1%; a wider one means spans that
// overlap, escape their parent or never ended.
const reconcileTolerance = 0.01

// selfNs returns the part of s's interval that none of its children
// covers. Children are clipped to s and overlapping children count
// once, so a well-formed tree's self times sum to its root's duration.
func selfNs(s *obs.Span) int64 {
	type interval struct{ lo, hi int64 }
	lo, hi := s.StartNs, s.StartNs+s.DurNs
	ivs := make([]interval, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := max(c.StartNs, lo), min(c.StartNs+c.DurNs, hi)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64 = 0, lo
	for _, iv := range ivs {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			covered += iv.hi - end
			end = iv.hi
		}
	}
	return s.DurNs - covered
}

// layers accumulates per-layer self time over many traces, one trace
// per frame, batch or trial. It is safe for concurrent use.
type layers struct {
	mu       sync.Mutex
	sampled  map[string]bool      // span names whose per-span times are kept
	dur      map[string][]float64 // ns per span, sampled names only
	self     map[string][]float64 // self ns per span, sampled names only
	selfSum  map[string]float64   // self ns summed per span name
	rootNs   float64              // summed root span durations
	workerNs float64              // summed clock time around the roots
	samples  map[string][]float64 // per-op measurements noted by workloads
}

// newLayers returns an empty accumulator that keeps per-span times for
// the named spans (every span name gets its self-time sum).
func newLayers(sampled ...string) *layers {
	l := &layers{
		sampled: map[string]bool{},
		dur:     map[string][]float64{},
		self:    map[string][]float64{},
		selfSum: map[string]float64{},
		samples: map[string][]float64{},
	}
	for _, name := range sampled {
		l.sampled[name] = true
	}
	return l
}

// add folds one finished trace in. worker is the clock time the caller
// measured around the trace's root span.
func (l *layers) add(tr *obs.Trace, worker time.Duration) {
	l.addRoots(tr.Roots(), worker)
}

func (l *layers) addRoots(roots []*obs.Span, worker time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		self := float64(selfNs(s))
		l.selfSum[s.Name] += self
		if l.sampled[s.Name] {
			l.dur[s.Name] = append(l.dur[s.Name], float64(s.DurNs))
			l.self[s.Name] = append(l.self[s.Name], self)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		l.rootNs += float64(r.DurNs)
		walk(r)
	}
	l.workerNs += float64(worker)
}

// note records one measurement that is not a span (a join phase, an
// impact phase, a per-scenario run time).
func (l *layers) note(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// share is the named layer's self time as a fraction of all traced
// root time: the most a faster layer can save.
func (l *layers) share(name string) float64 {
	if l.rootNs == 0 {
		return 0
	}
	return l.selfSum[name] / l.rootNs
}

// reconcile checks that the self times of every span add up to the
// traced worker time within reconcileTolerance.
func (l *layers) reconcile() error {
	total := 0.0
	for _, v := range l.selfSum {
		total += v
	}
	if l.workerNs <= 0 {
		return fmt.Errorf("reconcile: no traced worker time")
	}
	if gap := (total - l.workerNs) / l.workerNs; math.Abs(gap) > reconcileTolerance {
		return fmt.Errorf("reconcile: layer self times sum to %.0f ns, traced worker time is %.0f ns (%.2f%% apart, tolerance %.0f%%)",
			total, l.workerNs, 100*gap, 100*reconcileTolerance)
	}
	return nil
}
