package dsp

import "math"

// BitCorrelation counts matching positions between pattern and the window
// of stream starting at offset. It returns -1 when the window does not fit.
func BitCorrelation(stream, pattern []byte, offset int) int {
	if offset < 0 || offset+len(pattern) > len(stream) {
		return -1
	}
	matches := 0
	for i, p := range pattern {
		if stream[offset+i] == p {
			matches++
		}
	}
	return matches
}

// FindPattern scans stream for the offset with the highest correlation
// against pattern, allowing up to maxErrors mismatched bits. It returns the
// best offset and the number of mismatches, or ok=false when no window
// qualifies. Ties resolve to the earliest offset, which matches how a
// hardware correlator triggers on the first address match.
//
// Each window aborts as soon as it cannot beat the best qualifying match
// so far; with random pre-frame noise this makes the scan roughly
// constant-work per offset regardless of pattern length.
//
// The receivers synchronise through stream.Correlator, which packs the
// scan into 64-bit words; this byte-wise form is the reference its tests
// and fuzzer compare against.
func FindPattern(stream, pattern []byte, maxErrors int) (offset, errors int, ok bool) {
	if len(pattern) == 0 || len(pattern) > len(stream) {
		return 0, 0, false
	}
	bestOffset, bestErrors := -1, maxErrors+1
	for off := 0; off+len(pattern) <= len(stream); off++ {
		limit := bestErrors - 1 // must strictly beat the best so far
		errs := 0
		for i, p := range pattern {
			if stream[off+i] != p {
				errs++
				if errs > limit {
					break
				}
			}
		}
		if errs <= limit {
			bestErrors = errs
			bestOffset = off
			if errs == 0 {
				break
			}
		}
	}
	if bestOffset < 0 {
		return 0, 0, false
	}
	return bestOffset, bestErrors, true
}

// SoftScore computes the soft correlation Σ sums[pos+i]·(2·pattern[i]−1)
// of a binary pattern against per-symbol phase accumulations at a given
// offset. Receivers use it to rank hard-decision synchronisation
// candidates across sampling phases: only the correctly timed phase has a
// fully open eye, so its score dominates coincidental hard matches at
// wrong phases. Returns ok=false when the window does not fit.
func SoftScore(sums []float64, pattern []byte, pos int) (score float64, ok bool) {
	if pos < 0 || len(pattern) == 0 || pos+len(pattern) > len(sums) {
		return 0, false
	}
	for i, p := range pattern {
		if p == 1 {
			score += sums[pos+i]
		} else {
			score -= sums[pos+i]
		}
	}
	return score, true
}

// NormalizedCrossCorrelation returns the zero-lag normalized cross
// correlation of two real sequences (1.0 for identical shapes up to
// positive scaling). Sequences shorter than the other truncate the
// comparison; empty input returns 0.
func NormalizedCrossCorrelation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
