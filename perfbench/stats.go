package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: a p99 needs 1,000 samples, a p90 needs 100.
const minTail = 10

// quantile returns the q-quantile of samples, interpolating linearly
// between the two nearest ranks. A tail quantile (q > 0.5) with fewer
// than minTail samples beyond it is refused rather than reported from
// a handful of points.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("%s of no samples", pctName(q))
	}
	if q > 0.5 && float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("%s needs at least %.0f samples, have %d", pctName(q), math.Ceil(minTail/(1-q)-1e-9), n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is quantile(samples, 0.5) for callers that know samples is
// non-empty.
func median(samples []float64) float64 {
	v, err := quantile(samples, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// fmtRates lists per-round rates for the log.
func fmtRates(rates []float64) string {
	parts := make([]string, len(rates))
	for i, r := range rates {
		parts[i] = strconv.FormatFloat(r, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

// pctName names a quantile as its metric suffix: 0.5 is "p50", 0.99
// is "p99".
func pctName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// putQuantiles stores the quantiles of ns (nanoseconds) as metrics
// named base.pNN, in the given unit.
func putQuantiles(m map[string]float64, base string, ns []float64, unit float64, qs ...float64) error {
	for _, q := range qs {
		v, err := quantile(ns, q)
		if err != nil {
			return fmt.Errorf("%s: %w", base, err)
		}
		m[base+"."+pctName(q)] = v / unit
	}
	return nil
}
