package stream

import (
	"math/bits"

	"wazabee/internal/dsp"
)

// Correlator is the Access-Address/preamble synchronisation search of
// every production receiver (core.Receiver through ble.PHY.
// DemodulateFrame, ieee802154.PHY.DemodulateStats, the IDS framing
// check). Correlate discriminates a whole capture, integrates the phase
// increments into per-sampling-phase symbol sums and hard bit
// decisions, and scans each phase for the bit pattern with the
// candidate-selection semantics of dsp.FindPattern plus dsp.SoftScore
// tie-breaking across phases: per phase the candidate with the fewest
// mismatches wins, earliest position on ties, and the scan stops at the
// first zero-error match; across phases the qualifying candidate with
// the highest soft correlation wins.
//
// Integration is lazy: each phase is integrated only as far as its scan
// reads, so a phase whose scan stops at a zero-error match holds its
// sums through the end of that match until Sums asks for the rest.
//
// A pattern of at most 64 bits is scanned as a packed 64-bit window,
// one XOR and popcount per offset; a longer one falls back to the
// byte-wise comparison. Both count the same mismatches, so the
// decisions match dsp.FindPattern, which stays byte-wise as the
// reference the tests compare against.
type Correlator struct {
	// pattern is the hard bit pattern to correlate (the 32-bit WazaBee
	// Access Address, or an 802.15.4 preamble window).
	pattern []byte
	// sps is the number of samples per symbol; the correlator tracks
	// one candidate search per sampling phase.
	sps int
	// packed reports that the pattern is 1 to 64 bits of 0s and 1s,
	// held in the low bits of word (first bit highest) with mask
	// selecting them.
	packed     bool
	word, mask uint64

	incs   []float64
	phases []phaseState
}

// phaseState is one sampling phase's symbol sums, hard bits and best
// candidate.
type phaseState struct {
	sums []float64
	bits []byte
	// best candidate: qualifying iff has.
	bestPos, bestErrs int
	has               bool
}

// Correlate runs the synchronisation search over a whole capture: it
// discriminates sig straight into the correlator's increment buffer and
// scans every sampling phase. Its buffers come from the shared pool.
// The caller reads Best and Sums, then calls Close.
func Correlate(sig dsp.IQ, pattern []byte, maxErrors, sps int) *Correlator {
	c := newCorrelator(pattern, maxErrors, sps, len(sig))
	c.incs = dsp.DiscriminateInto(c.incs, sig)
	c.search()
	return c
}

// newCorrelator sizes the pooled buffers for incs phase increments; a
// candidate qualifies with at most maxErrors mismatches.
func newCorrelator(pattern []byte, maxErrors, sps, incs int) *Correlator {
	c := &Correlator{
		pattern: pattern,
		sps:     sps,
		packed:  len(pattern) > 0 && len(pattern) <= 64,
		incs:    sharedPool.F64(incs),
		phases:  make([]phaseState, sps),
	}
	if c.packed {
		for _, b := range pattern {
			if b > 1 {
				c.packed = false
			}
			c.word = c.word<<1 | uint64(b)
		}
		c.mask = ^uint64(0) >> (64 - len(pattern))
	}
	symbols := incs/max(sps, 1) + 1
	for p := range c.phases {
		c.phases[p] = phaseState{
			sums:     sharedPool.F64(symbols),
			bits:     sharedPool.Bits(symbols),
			bestErrs: maxErrors + 1,
		}
	}
	return c
}

// Close returns the correlator's buffers to the shared pool. The
// correlator must not be used afterwards.
func (c *Correlator) Close() {
	sharedPool.PutF64(c.incs)
	c.incs = nil
	for p := range c.phases {
		sharedPool.PutF64(c.phases[p].sums)
		sharedPool.PutBits(c.phases[p].bits)
		c.phases[p].sums, c.phases[p].bits = nil, nil
	}
}

// search scans every sampling phase for the pattern, integrating each
// phase as its scan advances.
func (c *Correlator) search() {
	for p := range c.phases {
		c.scanPhase(p)
	}
}

// symbols is the number of complete symbol windows at phase p, the
// length of dsp.IntegrateSymbols' result.
func (c *Correlator) symbols(p int) int {
	if p >= len(c.incs) {
		return 0
	}
	return (len(c.incs) - p) / c.sps
}

// integrate extends phase p's sums and hard bits through symbol end.
func (c *Correlator) integrate(p, end int) {
	ps := &c.phases[p]
	for k := len(ps.sums); k < end; k++ {
		ps.push(c.symbolSum(p, k))
	}
}

// symbolSum integrates symbol k of phase p in the summation order of
// dsp.IntegrateSymbols, so the floating-point results are bit-identical.
func (c *Correlator) symbolSum(p, k int) float64 {
	var sum float64
	for _, v := range c.incs[p+k*c.sps : p+(k+1)*c.sps] {
		sum += v
	}
	return sum
}

// push appends a symbol sum and its hard bit and returns the bit. The
// bit is set without a branch: a branch on a noisy sum mispredicts about
// every other symbol and serialises the independent sums.
func (ps *phaseState) push(sum float64) byte {
	var bit byte
	if sum > 0 {
		bit = 1
	}
	ps.sums = append(ps.sums, sum)
	ps.bits = append(ps.bits, bit)
	return bit
}

// scanPhase searches phase p's bits for the pattern, replicating
// dsp.FindPattern: ascending offsets, a candidate must strictly beat the
// best so far (initially maxErrors), and the scan stops at a perfect
// match. It integrates each symbol as the window first reaches it.
func (c *Correlator) scanPhase(p int) {
	n := len(c.pattern)
	total := c.symbols(p)
	if n > total {
		return
	}
	if !c.packed {
		c.scanBytes(p, total)
		return
	}
	// w slides over the bit stream: after the shift in iteration off it
	// holds bits[off : off+n], first bit highest, like c.word.
	ps := &c.phases[p]
	c.integrate(p, n-1)
	var w uint64
	for _, b := range ps.bits {
		w = w<<1 | uint64(b)
	}
	for off := 0; off+n <= total; off++ {
		w = (w<<1 | uint64(ps.push(c.symbolSum(p, off+n-1)))) & c.mask
		if ps.take(off, bits.OnesCount64(w^c.word)) {
			return
		}
	}
}

// scanBytes is scanPhase for patterns the packed window cannot hold:
// it compares byte by byte, abandoning a window once it cannot win.
func (c *Correlator) scanBytes(p, total int) {
	ps := &c.phases[p]
	for off := 0; off+len(c.pattern) <= total; off++ {
		c.integrate(p, off+len(c.pattern))
		limit := ps.bestErrs - 1
		errs := 0
		for i, pb := range c.pattern {
			if ps.bits[off+i] != pb {
				errs++
				if errs > limit {
					break
				}
			}
		}
		if ps.take(off, errs) {
			return
		}
	}
}

// take records the window at off as the phase's best candidate when its
// mismatch count strictly beats the best so far, and reports whether it
// is a perfect match, which ends the scan.
func (ps *phaseState) take(off, errs int) (perfect bool) {
	// bestErrs-1 rather than errs < bestErrs: FindPattern's limit
	// arithmetic, which wraps the same way for maxErrors = MaxInt.
	if errs > ps.bestErrs-1 {
		return false
	}
	ps.bestErrs = errs
	ps.bestPos = off
	ps.has = true
	return errs == 0
}

// Candidate is the correlator's synchronisation decision.
type Candidate struct {
	// Phase is the winning sampling phase, Pos the symbol offset of the
	// pattern within that phase's bit stream.
	Phase, Pos int
	// Errors is the hard mismatch count inside the pattern window,
	// Score the soft correlation of the window.
	Errors int
	Score  float64
}

// Best returns the cross-phase winner, ranked by soft correlation with
// ties resolving to the lowest phase.
func (c *Correlator) Best() (Candidate, bool) {
	var best Candidate
	found := false
	for p := range c.phases {
		ps := &c.phases[p]
		if !ps.has {
			continue
		}
		score, ok := dsp.SoftScore(ps.sums, c.pattern, ps.bestPos)
		if !ok {
			continue
		}
		if !found || score > best.Score {
			best = Candidate{Phase: p, Pos: ps.bestPos, Errors: ps.bestErrs, Score: score}
			found = true
		}
	}
	return best, found
}

// Sums exposes a phase's symbol sums over the whole capture (read-only;
// valid until Close). The first call for a phase whose scan stopped
// early integrates the rest of it.
func (c *Correlator) Sums(phase int) []float64 {
	c.integrate(phase, c.symbols(phase))
	return c.phases[phase].sums
}
